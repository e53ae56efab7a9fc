package fleet

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/durable"
	"ehdl/internal/faults"
	"ehdl/internal/hwsim"
	"ehdl/internal/nic"
	"ehdl/internal/obs"
	"ehdl/internal/protect"
)

// recoveryScenario is one fleet shape the kill-anywhere gate sweeps:
// the configs are chosen so that between them every rollout phase
// (start, device-update, device-soaked, halt, revert, done,
// rolled-back), every rebalance direction (kill, quarantine, drain,
// readmit) and every epoch-boundary commit point fires at least once.
type recoveryScenario struct {
	name   string
	epochs int
	cfg    func(t *testing.T) Config
}

func recoveryScenarios(t *testing.T) []recoveryScenario {
	return []recoveryScenario{
		{
			// Chaos mid-rollout: a kill and a silent corruption land while
			// the canary update walks the fleet to "done".
			name: "chaos-rollout", epochs: 10,
			cfg: func(t *testing.T) Config {
				return Config{
					Devices:      3,
					App:          apps.Toy(),
					Seed:         23,
					EpochPackets: 120,
					Verify:       true,
					Update:       toyUpdate(t),
					KillAt:       map[int][]int{3: {1}},
					CorruptAt:    map[int][]int{5: {2}},
				}
			},
		},
		{
			// Shadow chaos halts the rollout mid-flight: the crash sweep
			// kills the controller inside halt, revert and rolled-back.
			name: "halt-rollback", epochs: 8,
			cfg: func(t *testing.T) Config {
				u := toyUpdate(t)
				u.shadowChaos = map[int]faults.Config{
					1: faults.Single(faults.SEUMapEntry, 0.9, 99),
				}
				return Config{
					Devices:      3,
					App:          apps.Toy(),
					Seed:         31,
					EpochPackets: 96,
					Update:       u,
				}
			},
		},
		{
			// Hair-trigger watchdogs drain every device and re-admit it
			// after the jittered cool-down: crashes inside drain and
			// readmit, mid-cool-down resume, and the fleet RNG position.
			name: "drain-readmit", epochs: 6,
			cfg: func(t *testing.T) Config {
				return Config{
					Devices:      2,
					App:          apps.Toy(),
					Seed:         47,
					EpochPackets: 48,
					shell: nic.ShellConfig{Sim: hwsim.Config{
						Protection:            protect.LevelECC,
						WatchdogCycles:        2,
						MaxRecoveries:         -1,
						RecoveryBackoffCycles: 4,
					}},
				}
			},
		},
	}
}

func mustRun(t *testing.T, cfg Config, epochs int) (Report, *Controller) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(epochs)
	if err != nil {
		t.Fatal(err)
	}
	return rep, c
}

func reportJSON(t *testing.T, rep Report) string {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFleetJournalFreshRunMatchesPlain: attaching a journal must not
// perturb execution — a journaled run's report is byte-identical to the
// same-seed run without one.
func TestFleetJournalFreshRunMatchesPlain(t *testing.T) {
	for _, sc := range recoveryScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			plain, _ := mustRun(t, sc.cfg(t), sc.epochs)
			jcfg := sc.cfg(t)
			jcfg.JournalDir = t.TempDir()
			journaled, c := mustRun(t, jcfg, sc.epochs)
			if a, b := reportJSON(t, plain), reportJSON(t, journaled); a != b {
				t.Errorf("journal perturbed the run:\nplain     %s\njournaled %s", a, b)
			}
			if ri := c.RecoveryInfo(); ri.Resumed {
				t.Errorf("fresh journaled run reported Resumed: %+v", ri)
			}
		})
	}
}

// TestFleetKillAnywhereRecoveryGate is the release gate: for every
// crash site a scenario passes — every epoch boundary (pre-commit,
// pre-sync, post-commit) and every rollout/revert/
// drain/readmit transition — the controller is killed there, recovered
// with Resume, and the final report must be byte-identical to the
// uninterrupted same-seed run with the loss books balancing exactly.
// One site per scenario additionally has a torn partial record appended
// to the journal before resuming.
func TestFleetKillAnywhereRecoveryGate(t *testing.T) {
	for _, sc := range recoveryScenarios(t) {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			baseline, _ := mustRun(t, sc.cfg(t), sc.epochs)
			want := reportJSON(t, baseline)
			if !baseline.Accounted() {
				t.Fatalf("baseline books don't balance: %+v", baseline)
			}

			// Probe pass: enumerate every crash site this scenario fires.
			probeCfg := sc.cfg(t)
			probeCfg.JournalDir = t.TempDir()
			probe, err := New(probeCfg)
			if err != nil {
				t.Fatal(err)
			}
			probe.crashProbe = map[string]int{}
			if _, err := probe.Run(sc.epochs); err != nil {
				t.Fatal(err)
			}
			var sites []string
			for s := range probe.crashProbe {
				sites = append(sites, s)
			}
			sort.Strings(sites)
			if len(sites) < sc.epochs*3 {
				t.Fatalf("probe found only %d crash sites: %v", len(sites), sites)
			}
			t.Logf("%s: %d crash sites over %d epochs", sc.name, len(sites), sc.epochs)

			stride := 1
			if testing.Short() {
				stride = 4
			}
			for i, site := range sites {
				if i%stride != 0 {
					continue
				}
				dir := t.TempDir()
				crashCfg := sc.cfg(t)
				crashCfg.JournalDir = dir
				crashed, err := New(crashCfg)
				if err != nil {
					t.Fatal(err)
				}
				crashed.crashAt = site
				if _, err := crashed.Run(sc.epochs); !errors.Is(err, errSimulatedCrash) {
					t.Fatalf("site %q: crash did not fire (err %v)", site, err)
				}

				// One deterministic site per scenario also gets a torn
				// partial record appended — the footprint of an append the
				// kill interrupted halfway.
				torn := i == 0
				if torn {
					f, err := os.OpenFile(filepath.Join(dir, journalFileName), os.O_WRONLY|os.O_APPEND, 0o644)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := f.Write([]byte{0x55, 0x01, 0x00, 0x00, 0x02, 0xde, 0xad}); err != nil {
						t.Fatal(err)
					}
					f.Close()
				}

				resumeCfg := sc.cfg(t)
				resumeCfg.JournalDir = dir
				resumeCfg.Resume = true
				resumed, err := New(resumeCfg)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := resumed.Run(sc.epochs)
				if err != nil {
					t.Fatalf("site %q: resume failed: %v", site, err)
				}
				if got := reportJSON(t, rep); got != want {
					t.Fatalf("site %q: resumed report diverged:\nwant %s\ngot  %s", site, want, got)
				}
				if !rep.Accounted() {
					t.Errorf("site %q: resumed books don't balance", site)
				}
				ri := resumed.RecoveryInfo()
				if !ri.Resumed {
					t.Errorf("site %q: recovery info not marked resumed: %+v", site, ri)
				}
				if torn && ri.TornBytesTruncated == 0 {
					t.Errorf("site %q: torn tail injected but none truncated", site)
				}
			}
		})
	}
}

// TestFleetResumeAfterComplete: resuming a journal whose run finished
// replays everything, verifies the journaled final-report digest, and
// returns the identical report. The journal is the run's only file.
func TestFleetResumeAfterComplete(t *testing.T) {
	sc := recoveryScenarios(t)[0]
	dir := t.TempDir()
	cfg := sc.cfg(t)
	cfg.JournalDir = dir
	first, _ := mustRun(t, cfg, sc.epochs)
	want := reportJSON(t, first)
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0].Name() != journalFileName {
		t.Errorf("journaled run left %v, want only %s", files, journalFileName)
	}

	// Clean completed resume.
	cfg.Resume = true
	rep, c := mustRun(t, cfg, sc.epochs)
	if got := reportJSON(t, rep); got != want {
		t.Fatalf("completed resume diverged:\nwant %s\ngot  %s", want, got)
	}
	ri := c.RecoveryInfo()
	if !ri.Resumed || !ri.CompletedPrior || ri.ReplayedEpochs != sc.epochs {
		t.Errorf("completed resume info: %+v", ri)
	}
}

// TestFleetResumeConfigMismatch: a resume whose configuration does not
// fingerprint-match the journaled run is refused with the typed error.
func TestFleetResumeConfigMismatch(t *testing.T) {
	sc := recoveryScenarios(t)[0]
	dir := t.TempDir()
	cfg := sc.cfg(t)
	cfg.JournalDir = dir
	mustRun(t, cfg, sc.epochs)

	for name, mut := range map[string]func(*Config, *int){
		"seed":    func(c *Config, _ *int) { c.Seed++ },
		"devices": func(c *Config, _ *int) { c.Devices++ },
		"epochs":  func(_ *Config, e *int) { *e++ },
		"chaos":   func(c *Config, _ *int) { c.KillAt = nil },
		// The fault campaign reaches the fingerprint only through
		// faults.Config's exported fields: a rate must count.
		"malform rate": func(c *Config, _ *int) { c.Chaos.MalformRate += 0.01 },
	} {
		bad := sc.cfg(t)
		bad.JournalDir = dir
		bad.Resume = true
		epochs := sc.epochs
		mut(&bad, &epochs)
		c, err := New(bad)
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Run(epochs)
		var cm *configMismatchError
		if !errors.As(err, &cm) {
			t.Errorf("%s mutation: err %v, want *ConfigMismatchError", name, err)
		}
		if err != nil && !DurabilityError(err) {
			t.Errorf("%s mutation: DurabilityError(%v) = false", name, err)
		}
	}
}

// TestFleetResumeResolvesDefaults: the fingerprint holds what a field
// means, not how it was written. A run journaled with every defaulted
// field at 0 resumes under the explicit defaults (and the shell's
// explicit clock) to the identical report; a different value is refused.
func TestFleetResumeResolvesDefaults(t *testing.T) {
	sc := recoveryScenarios(t)[0]
	dir := t.TempDir()
	cfg := sc.cfg(t)
	cfg.JournalDir = dir
	cfg.EpochPackets = 0
	first, _ := mustRun(t, cfg, sc.epochs)

	explicit := sc.cfg(t)
	explicit.JournalDir, explicit.Resume = dir, true
	explicit.TenantBandPct = 70
	explicit.shell.ClockHz, explicit.EpochPackets = 250e6, 256
	rep, _ := mustRun(t, explicit, sc.epochs)
	if got, want := reportJSON(t, rep), reportJSON(t, first); got != want {
		t.Fatalf("resume under the explicit defaults diverged:\nwant %s\ngot  %s", want, got)
	}

	explicit.EpochPackets = 512
	c, err := New(explicit)
	if err != nil {
		t.Fatal(err)
	}
	var cm *configMismatchError
	if _, err := c.Run(sc.epochs); !errors.As(err, &cm) {
		t.Fatalf("EpochPackets 0 -> 512: err %v, want *ConfigMismatchError", err)
	}
}

// TestFleetJournalGuards pins the refusal paths: an existing journal
// without Resume, Resume without a journal dir, and corruption of
// committed journal bytes.
func TestFleetJournalGuards(t *testing.T) {
	sc := recoveryScenarios(t)[0]
	dir := t.TempDir()
	cfg := sc.cfg(t)
	cfg.JournalDir = dir
	mustRun(t, cfg, sc.epochs)

	// Same dir, no Resume.
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(sc.epochs); !errors.Is(err, errJournalExists) {
		t.Errorf("journal reuse without Resume: err %v, want ErrJournalExists", err)
	}

	// Resume without a journal dir.
	nr := sc.cfg(t)
	nr.Resume = true
	c, err = New(nr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(sc.epochs); err == nil || !strings.Contains(err.Error(), "journal directory") {
		t.Errorf("Resume without JournalDir: err %v", err)
	}

	// Bit-flip a committed record: resume must refuse with the typed
	// corruption error, not truncate silently.
	path := filepath.Join(dir, journalFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.Resume = true
	c, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(sc.epochs)
	var ce *durable.CorruptRecordError
	if !errors.As(err, &ce) {
		t.Errorf("corrupted journal resume: err %v, want *CorruptRecordError", err)
	}
	if err != nil && !DurabilityError(err) {
		t.Error("corruption not classified as a durability error")
	}
}

// TestFleetTenantJournalResume: the journal path also covers tenant
// mode (no map capture, device state only) — crash, resume, identical
// report.
func TestFleetTenantJournalResume(t *testing.T) {
	mkCfg := func() Config {
		return Config{
			Devices:      2,
			Tenants:      tenantSpecs(t),
			Seed:         7,
			EpochPackets: 64,
		}
	}
	baseline, _ := mustRun(t, mkCfg(), 6)
	want := reportJSON(t, baseline)

	dir := t.TempDir()
	cfg := mkCfg()
	cfg.JournalDir = dir
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.crashAt = "epoch:e3:post-commit"
	if _, err := c.Run(6); !errors.Is(err, errSimulatedCrash) {
		t.Fatalf("tenant crash did not fire: %v", err)
	}
	cfg.Resume = true
	rep, rc := mustRun(t, cfg, 6)
	if got := reportJSON(t, rep); got != want {
		t.Fatalf("tenant resume diverged:\nwant %s\ngot  %s", want, got)
	}
	if ri := rc.RecoveryInfo(); !ri.Resumed || ri.ReplayedEpochs != 4 {
		t.Errorf("tenant recovery info: %+v", ri)
	}
}

// TestFleetDurableEventCoverage proves the journal-owned event classes
// (exempted from the simulator-side coverage test) are emitted and the
// durable.* metrics accumulate, across a crash and its recovery.
func TestFleetDurableEventCoverage(t *testing.T) {
	sc := recoveryScenarios(t)[0]
	dir := t.TempDir()
	cfg := sc.cfg(t)
	cfg.JournalDir = dir
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.crashAt = "epoch:e5:pre-commit"
	if _, err := c.Run(sc.epochs); !errors.Is(err, errSimulatedCrash) {
		t.Fatalf("crash did not fire: %v", err)
	}

	tr := obs.NewTracer(8192)
	reg := obs.NewRegistry()
	cfg.Resume = true
	cfg.Trace = tr
	cfg.metrics = reg
	rc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Run(sc.epochs); err != nil {
		t.Fatal(err)
	}
	seen := map[obs.Kind]bool{}
	for _, ev := range tr.Recent() {
		seen[ev.Kind] = true
	}
	for _, k := range []obs.Kind{obs.KindJournalCommit, obs.KindReplayEpoch} {
		if !seen[k] {
			t.Errorf("journaled run never emitted %q", k)
		}
	}
	if v, _ := reg.CounterValue(metricReplayedEpochs); v != 5 {
		t.Errorf("%s = %d, want 5", metricReplayedEpochs, v)
	}
	for _, m := range []string{durable.MetricAppends, durable.MetricCommits} {
		if v, _ := reg.CounterValue(m); v == 0 {
			t.Errorf("%s never counted", m)
		}
	}
}

// TestFleetReplayDivergenceDetected: a journal whose epoch digest does
// not match what replay reproduces must fail with the typed divergence
// error instead of silently resuming a different run. The tampered
// digest decodes cleanly (the record is re-framed with a valid CRC), so
// only the replay verification can catch it.
func TestFleetReplayDivergenceDetected(t *testing.T) {
	sc := recoveryScenarios(t)[0]
	dir := t.TempDir()
	cfg := sc.cfg(t)
	cfg.JournalDir = dir
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.crashAt = "epoch:e4:post-commit"
	if _, err := c.Run(sc.epochs); !errors.Is(err, errSimulatedCrash) {
		t.Fatalf("crash did not fire: %v", err)
	}

	// Rewrite the journal with one epoch digest altered, CRC intact.
	path := filepath.Join(dir, journalFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, torn, err := durable.Decode(data)
	if err != nil || torn != 0 {
		t.Fatalf("decode crashed journal: torn %d, err %v", torn, err)
	}
	var er struct {
		Epoch  int    `json:"epoch"`
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal(recs[3].Payload, &er); err != nil {
		t.Fatal(err)
	}
	if er.Digest[0] == 'f' {
		er.Digest = "0" + er.Digest[1:]
	} else {
		er.Digest = "f" + er.Digest[1:]
	}
	recs[3].Payload, err = json.Marshal(er)
	if err != nil {
		t.Fatal(err)
	}
	out := durable.EncodeHeader()
	for _, r := range recs {
		out = append(out, durable.EncodeRecord(r)...)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg.Resume = true
	rc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = rc.Run(sc.epochs)
	var rd *replayDivergenceError
	if !errors.As(err, &rd) {
		t.Fatalf("tampered digest resumed: err %v, want *ReplayDivergenceError", err)
	}
	if rd.Epoch != 2 {
		t.Errorf("divergence flagged at epoch %d, want 2 (record 3 = epoch 2)", rd.Epoch)
	}
	if !DurabilityError(err) {
		t.Error("divergence not classified as a durability error")
	}
}

// TestFingerprintCoversShellConfig: every field of nic.ShellConfig and
// of its hwsim.Config, set away from its zero value, either changes the
// shell fingerprint or is listed here as not shaping a run. A field
// added to either struct and missed by fpShell fails here instead of
// silently dropping out of a journal's identity.
func TestFingerprintCoversShellConfig(t *testing.T) {
	notShaping := map[string]string{
		"Sim.ClockHz": "the shell's ClockHz replaces it",
		"Sim.Faults":  "the injector the shell builds from Faults",
		"Sim.Trace":   "a tracer observes",
		"Sim.Metrics": "a registry observes",
	}
	base := nic.ShellConfig{Queues: 2} // Batch counts from two queues on
	fp := func(sh nic.ShellConfig) string {
		b, err := json.Marshal(shellFingerprint(sh))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	want := fp(base)
	seen := map[string]bool{}
	var walk func(name string, index []int, typ reflect.Type)
	walk = func(name string, index []int, typ reflect.Type) {
		if typ.Kind() == reflect.Struct {
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(strings.TrimPrefix(name+"."+f.Name, "."), append(slices.Clip(index), i), f.Type)
			}
			return
		}
		seen[name] = true
		sh := base
		v := reflect.ValueOf(&sh).Elem().FieldByIndex(index)
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(3)
		case reflect.Float32, reflect.Float64:
			v.SetFloat(0.5)
		case reflect.Pointer:
			v.Set(reflect.New(v.Type().Elem()))
		default:
			t.Errorf("%s: no probe for a %s field", name, v.Kind())
			return
		}
		shapes := fp(sh) != want
		if why, listed := notShaping[name]; listed && shapes {
			t.Errorf("%s is listed as not shaping a run (%s) but changes the fingerprint", name, why)
		} else if !listed && !shapes {
			t.Errorf("%s is neither fingerprinted nor listed as not shaping a run", name)
		}
	}
	walk("", nil, reflect.TypeOf(base))
	for name := range notShaping {
		if !seen[name] {
			t.Errorf("notShaping lists %s, which ShellConfig no longer has", name)
		}
	}
}
