// The acceptance surface of the live update (external package: the NIC
// shell imports liveupdate, so shell-level tests must sit outside it):
//
//   - a mid-run update drops zero packets and the data path is
//     bit-for-bit the no-update control's;
//   - Swap's committed engine holds exactly the state a reference
//     interpreter reaches over every packet the old engine served plus
//     the canary window;
//   - a corrupted new pipeline (SEU campaign) diverges in the canary and
//     rolls back with the old pipeline's verdicts untouched;
//   - schema incompatibilities, compile and setup errors roll back at
//     their typed stage;
//   - a full chaos campaign with an update in the middle is
//     byte-reproducible from its seed.
package liveupdate_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/asm"
	"ehdl/internal/conformance"
	"ehdl/internal/core"
	"ehdl/internal/ebpf"
	"ehdl/internal/faults"
	"ehdl/internal/hwsim"
	"ehdl/internal/liveupdate"
	"ehdl/internal/maps"
	"ehdl/internal/nic"
	"ehdl/internal/obs"
	"ehdl/internal/pktgen"
	"ehdl/internal/vm"
)

const testRate = 250e6 / 8 // one packet every 8 cycles at the default clock

func firewallProg(t *testing.T) *ebpf.Program {
	t.Helper()
	app, ok := apps.ByName("firewall")
	if !ok {
		t.Fatal("firewall app missing")
	}
	prog, err := app.Program()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// firewallVariant reassembles the firewall with its conn declaration
// rewritten.
func firewallVariant(t *testing.T, oldDecl, newDecl string) *ebpf.Program {
	t.Helper()
	app, _ := apps.ByName("firewall")
	src := strings.Replace(app.Source, oldDecl, newDecl, 1)
	if src == app.Source {
		t.Fatalf("declaration %q not found in firewall source", oldDecl)
	}
	prog, err := asm.Assemble("firewall-v2", src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func firewallShell(t *testing.T, cfg nic.ShellConfig) *nic.Shell {
	t.Helper()
	pl, err := core.Compile(firewallProg(t), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := nic.New(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// testTraffic returns a fresh, deterministic generator: few flows, so
// the connection table sees both misses and established hits.
func testTraffic() *pktgen.Generator {
	return pktgen.NewGenerator(pktgen.GeneratorConfig{
		Flows: 24, PacketLen: 64, Proto: ebpf.IPProtoUDP, Seed: 99,
	})
}

// updateCfg is the baseline update: the same firewall recompiled.
func updateCfg(t *testing.T) liveupdate.Config {
	return liveupdate.Config{Prog: firewallProg(t), CanaryPackets: 32}
}

// runFirewall drives one 400-packet load, optionally with an update
// scheduled after 100 packets.
func runFirewall(t *testing.T, cfg nic.ShellConfig, upd *liveupdate.Config) (nic.Report, *nic.Shell) {
	t.Helper()
	sh := firewallShell(t, cfg)
	if upd != nil {
		if err := sh.ScheduleUpdate(100, *upd); err != nil {
			t.Fatal(err)
		}
	}
	gen := testTraffic()
	rep, err := sh.RunLoad(gen.Next, 400, testRate)
	if err != nil {
		t.Fatal(err)
	}
	return rep, sh
}

// failedAt reports whether a run's update rolled back at stage, with
// cause's text in the failure when cause is set: the report carries the
// typed error as text.
func failedAt(rep nic.Report, stage liveupdate.Stage, cause error) bool {
	prefix := (&liveupdate.UpdateError{Stage: stage, Err: errors.New("")}).Error()
	return rep.UpdatesRolledBack == 1 && strings.HasPrefix(rep.UpdateFailure, prefix) &&
		(cause == nil || strings.Contains(rep.UpdateFailure, cause.Error()))
}

// TestHitlessUpdateZeroLoss is the hitless proof: a mid-run self-update
// (the firewall recompiled and swapped in) loses no packet, every
// canaried verdict matches the reference interpreter, and the final
// data-path state is bit-for-bit the no-update control run's.
func TestHitlessUpdateZeroLoss(t *testing.T) {
	ucfg := updateCfg(t)
	repU, shU := runFirewall(t, nic.ShellConfig{}, &ucfg)
	repC, shC := runFirewall(t, nic.ShellConfig{}, nil)

	if repU.UpdatesAttempted != 1 || repU.UpdatesCompleted != 1 || repU.UpdatesRolledBack != 0 {
		t.Fatalf("update outcome: attempted=%d completed=%d rolledback=%d (failure %q)",
			repU.UpdatesAttempted, repU.UpdatesCompleted, repU.UpdatesRolledBack, repU.UpdateFailure)
	}
	if repU.UpdateStage != "done" {
		t.Fatalf("final stage %q", repU.UpdateStage)
	}
	if repU.Lost != 0 || repU.Received != repU.Sent {
		t.Fatalf("update dropped packets: lost %d, received %d of %d", repU.Lost, repU.Received, repU.Sent)
	}
	if repU.MigratedEntries == 0 {
		t.Fatal("no map entries migrated")
	}
	if repU.CanariedPackets < 32 || repU.CanaryDivergences != 0 {
		t.Fatalf("canary: %d packets, %d divergences, want >= 32 and 0", repU.CanariedPackets, repU.CanaryDivergences)
	}
	if repU.HeldPackets == 0 || repU.CutoverTicks <= repU.MigratedEntries {
		t.Fatalf("cutover held %d packets over %d ticks (%d migrating): no drain tail",
			repU.HeldPackets, repU.CutoverTicks, repU.MigratedEntries)
	}

	// The update must be invisible to the data path: same verdict
	// distribution and bit-identical final map state as the control.
	if !reflect.DeepEqual(repU.Actions, repC.Actions) {
		t.Fatalf("verdicts diverged from control: %v vs %v", repU.Actions, repC.Actions)
	}
	if err := conformance.CompareMaps(shC.Maps(), shU.Maps()); err != nil {
		t.Fatalf("final map state diverged from no-update control: %v", err)
	}
	if repC.Lost != 0 || repC.Received != repC.Sent {
		t.Fatalf("control run unexpectedly lossy: lost=%d", repC.Lost)
	}
}

// simLoop is one interpreter at a drain barrier, driven by hand: the
// loop a drive loop hands Swap, without the shell.
type simLoop struct {
	old   *hwsim.Sim
	prog  *ebpf.Program
	gen   *pktgen.Generator
	left  int      // arrivals the run still has
	held  [][]byte // what Swap took
	inj   *faults.Injector
	built *hwsim.Sim
}

func (l *simLoop) Drain() (uint64, error) {
	start := l.old.Cycle()
	err := l.old.RunToCompletion(1 << 20)
	return l.old.Cycle() - start, err
}

func (l *simLoop) Old() (*ebpf.Program, *maps.Set) { return l.prog, l.old.Maps() }

func (l *simLoop) Now() uint64 { return 0 }

func (l *simLoop) Build(pl *core.Pipeline) (liveupdate.Engine, error) {
	sim, err := hwsim.New(pl, hwsim.Config{Faults: l.inj})
	l.built = sim
	return oneSim{sim}, err
}

func (l *simLoop) hold() []byte {
	if l.left == 0 {
		return nil
	}
	l.left--
	pkt := l.gen.Next()
	l.held = append(l.held, pkt)
	return pkt
}

type oneSim struct{ *hwsim.Sim }

func (e oneSim) Cores() []hwsim.Core { return []hwsim.Core{e.Sim} }

func (oneSim) Steer([]byte) int { return 0 }

// warmLoop serves 64 firewall packets on a pinned-clock interpreter and
// returns the loop at its barrier with the packets the old engine took.
func warmLoop(t *testing.T, left int) (*simLoop, [][]byte) {
	t.Helper()
	prog := firewallProg(t)
	pl, err := core.Compile(prog, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	old, err := hwsim.New(pl, hwsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	old.SetClock(func() uint64 { return 0 })
	gen := testTraffic()
	var accepted [][]byte
	for i := 0; i < 64; i++ {
		for !old.InputFree() {
			if err := old.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if pkt := gen.Next(); old.Inject(pkt) {
			accepted = append(accepted, pkt)
		}
		if err := old.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return &simLoop{old: old, prog: prog, gen: gen, left: left}, accepted
}

// TestMigrationBitForBitAtCutover runs Swap by hand and stops right
// after the commit: the new engine's map state must equal a reference
// interpreter fed exactly the packets the old engine accepted and then
// the canary window — the migration is exact, not approximate, and the
// canary's packets are served, not discarded.
func TestMigrationBitForBitAtCutover(t *testing.T) {
	l, accepted := warmLoop(t, 1000)
	res, err := liveupdate.Swap(l, liveupdate.Config{Prog: firewallProg(t), CanaryPackets: 8}, 8, l.hold)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("update rolled back: %v", res.Err)
	}
	st := res.Stats
	if st.MigratedEntries == 0 {
		t.Fatal("no entries migrated")
	}
	if n := uint64(len(l.held)); n < 8 || n < st.HeldPackets || st.CanariedPackets != n {
		t.Fatalf("canary took %d arrivals and diffed %d, %d held", n, st.CanariedPackets, st.HeldPackets)
	}
	if res.Canary.PerQueue[0].Stats.Completed != uint64(len(l.held)) || res.Held != nil {
		t.Fatalf("canary session retired %d of %d; held back %d", res.Canary.PerQueue[0].Stats.Completed, len(l.held), len(res.Held))
	}

	if err := conformance.CompareMaps(reference(t, l.prog, append(accepted, l.held...)), l.built.Maps()); err != nil {
		t.Fatalf("state after the commit diverges from reference: %v", err)
	}
}

// reference runs pkts through the reference interpreter at time 0 and
// returns its maps.
func reference(t *testing.T, prog *ebpf.Program, pkts [][]byte) *maps.Set {
	t.Helper()
	env, err := vm.NewEnv(prog)
	if err != nil {
		t.Fatal(err)
	}
	env.Now = func() uint64 { return 0 }
	machine, err := vm.New(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	for i, pkt := range pkts {
		if _, err := machine.Run(vm.NewPacket(append([]byte(nil), pkt...))); err != nil {
			t.Fatalf("reference packet %d: %v", i, err)
		}
	}
	return env.Maps
}

// TestSwapRollbackStages drives each rollback class through Swap by
// hand: the typed stage and cause, the old engine's state untouched,
// and the canary's arrivals handed back only when the canary took them.
func TestSwapRollbackStages(t *testing.T) {
	loop, err := asm.Assemble("loop", `
r0 = 0
again:
r0 += 1
r2 = *(u32 *)(r1 + 0)
if r0 < r2 goto again
r0 = 2
exit
`)
	if err != nil {
		t.Fatal(err)
	}
	refused := errors.New("setup refused")
	cases := []struct {
		name  string
		prep  func(*liveupdate.Config, *simLoop)
		stage liveupdate.Stage
		cause error // matched with errors.Is; nil: any
	}{
		{"schema", func(c *liveupdate.Config, _ *simLoop) {
			c.Prog = firewallVariant(t, "map conn hash key=12 value=8", "map conn hash key=12 value=16")
		}, liveupdate.StageGate, liveupdate.ErrIncompatible},
		{"compile", func(c *liveupdate.Config, _ *simLoop) { c.Prog = loop }, liveupdate.StageShadow, nil},
		{"setup", func(c *liveupdate.Config, _ *simLoop) {
			c.Setup = func(*maps.Set) error { return refused }
		}, liveupdate.StageShadow, refused},
		{"canary", func(_ *liveupdate.Config, l *simLoop) {
			l.inj = faults.New(faults.Single(faults.SEUMapEntry, 0.5, 7))
		}, liveupdate.StageCanary, liveupdate.ErrCanaryDiverged},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, accepted := warmLoop(t, 1000)
			ucfg := liveupdate.Config{Prog: firewallProg(t), CanaryPackets: 8}
			tc.prep(&ucfg, l)
			res, err := liveupdate.Swap(l, ucfg, 8, l.hold)
			if err != nil {
				t.Fatal(err)
			}
			if res.Err == nil || res.Err.Stage != tc.stage {
				t.Fatalf("outcome %v, want a rollback at %v", res.Err, tc.stage)
			}
			if tc.cause != nil && !errors.Is(res.Err, tc.cause) {
				t.Fatalf("cause %v, want %v", res.Err, tc.cause)
			}
			// Only the canary takes arrivals; a rollback hands all back.
			if !reflect.DeepEqual(res.Held, l.held) || (tc.stage == liveupdate.StageCanary) != (len(l.held) > 0) {
				t.Fatalf("handed back %d of %d taken arrivals", len(res.Held), len(l.held))
			}
			if err := conformance.CompareMaps(reference(t, l.prog, accepted), l.old.Maps()); err != nil {
				t.Fatalf("the rollback wrote the old engine's state: %v", err)
			}
		})
	}
}

// TestCanaryDivergenceRollsBack corrupts the new pipeline with an SEU
// campaign: the canary must catch the divergence, roll back with a
// typed error, and leave the old pipeline's verdicts and map state
// exactly as a run that never attempted the update.
func TestCanaryDivergenceRollsBack(t *testing.T) {
	ucfg := updateCfg(t)
	ucfg.Faults = faults.New(faults.Single(faults.SEUMapEntry, 0.5, 7))
	repU, shU := runFirewall(t, nic.ShellConfig{}, &ucfg)
	repC, shC := runFirewall(t, nic.ShellConfig{}, nil)

	if repU.UpdatesCompleted != 0 || !failedAt(repU, liveupdate.StageCanary, liveupdate.ErrCanaryDiverged) {
		t.Fatalf("outcome: completed=%d rolledback=%d stage=%q failure=%q",
			repU.UpdatesCompleted, repU.UpdatesRolledBack, repU.UpdateStage, repU.UpdateFailure)
	}
	if repU.CanaryDivergences == 0 {
		t.Fatal("rolled back without counting a divergence")
	}

	// The rolled-back update must be invisible: the old pipeline served
	// everything, bit-for-bit like the control.
	if repU.Lost != 0 || repU.Received != repU.Sent {
		t.Fatalf("rollback lost packets: lost=%d received=%d sent=%d",
			repU.Lost, repU.Received, repU.Sent)
	}
	if !reflect.DeepEqual(repU.Actions, repC.Actions) {
		t.Fatalf("verdicts diverged from control: %v vs %v", repU.Actions, repC.Actions)
	}
	if err := conformance.CompareMaps(shC.Maps(), shU.Maps()); err != nil {
		t.Fatalf("old pipeline state diverged after rollback: %v", err)
	}
}

// TestIncompatibleSchemaRollsBack widens conn's value width in the new
// program: the gate must refuse with a typed CompatError before anything
// changes, and the run keeps serving on the old pipeline.
func TestIncompatibleSchemaRollsBack(t *testing.T) {
	ucfg := updateCfg(t)
	ucfg.Prog = firewallVariant(t,
		"map conn hash key=12 value=8", "map conn hash key=12 value=16")
	rep, _ := runFirewall(t, nic.ShellConfig{}, &ucfg)

	if rep.UpdatesAttempted != 1 || !failedAt(rep, liveupdate.StageGate, nil) {
		t.Fatalf("outcome: attempted=%d rolledback=%d failure %q", rep.UpdatesAttempted, rep.UpdatesRolledBack, rep.UpdateFailure)
	}
	if !strings.Contains(rep.UpdateFailure, "value_size") {
		t.Fatalf("failure %q does not name the incompatible field", rep.UpdateFailure)
	}
	if rep.Lost != 0 || rep.Received != rep.Sent || rep.CanariedPackets != 0 {
		t.Fatalf("serving disturbed: lost=%d, canaried %d", rep.Lost, rep.CanariedPackets)
	}
}

// TestCompatTyped pins the typed-error contract of the schema checker.
func TestCompatTyped(t *testing.T) {
	base := ebpf.MapSpec{Name: "m", Kind: ebpf.MapHash, KeySize: 12, ValueSize: 8, MaxEntries: 64}
	cases := []struct {
		name  string
		mut   func(s ebpf.MapSpec) ebpf.MapSpec
		field string
	}{
		{"kind", func(s ebpf.MapSpec) ebpf.MapSpec { s.Kind = ebpf.MapLRUHash; return s }, "kind"},
		{"key", func(s ebpf.MapSpec) ebpf.MapSpec { s.KeySize = 16; return s }, "key_size"},
		{"value", func(s ebpf.MapSpec) ebpf.MapSpec { s.ValueSize = 16; return s }, "value_size"},
		{"shrink", func(s ebpf.MapSpec) ebpf.MapSpec { s.MaxEntries = 32; return s }, "max_entries"},
	}
	for _, tc := range cases {
		err := liveupdate.CheckCompat(base, tc.mut(base))
		if !errors.Is(err, liveupdate.ErrIncompatible) {
			t.Fatalf("%s: %v is not ErrIncompatible", tc.name, err)
		}
		var ce *liveupdate.CompatError
		if !errors.As(err, &ce) || ce.Field != tc.field || ce.Map != "m" {
			t.Fatalf("%s: CompatError %+v, want field %q", tc.name, ce, tc.field)
		}
	}
	// Widening capacity is explicitly allowed.
	wide := base
	wide.MaxEntries = 128
	if err := liveupdate.CheckCompat(base, wide); err != nil {
		t.Fatalf("widened capacity refused: %v", err)
	}
	// Program-level sweep finds the same incompatibility.
	if err := liveupdate.CheckPrograms(
		firewallProg(t),
		firewallVariant(t, "map conn hash key=12 value=8", "map conn lru_hash key=12 value=8"),
	); !errors.Is(err, liveupdate.ErrIncompatible) {
		t.Fatalf("CheckPrograms missed the kind change: %v", err)
	}
	if err := liveupdate.CheckPrograms(
		firewallProg(t),
		firewallVariant(t, "entries=16384", "entries=32768"),
	); err != nil {
		t.Fatalf("CheckPrograms refused a widened table: %v", err)
	}
}

// TestChaosReplayDeterministic runs a full fault campaign — SEU,
// malformed frames, overflow bursts, flush storms — with an update in
// the middle, twice from the same seed: the reports and the final map
// state must be byte-identical. This is the end-to-end proof of the
// per-class RNG streams: the new engine's forked campaign cannot
// perturb the serving pipeline's fault sites.
func TestChaosReplayDeterministic(t *testing.T) {
	run := func() (nic.Report, *nic.Shell) {
		cfg := nic.ShellConfig{Faults: faults.Config{
			Seed:            41,
			SEURegisterRate: 0.0005,
			SEUMapEntryRate: 0.001,
			MalformRate:     0.01,
			OverflowRate:    0.002,
			FlushStormRate:  0.002,
		}}
		ucfg := updateCfg(t)
		return runFirewall(t, cfg, &ucfg)
	}
	rep1, sh1 := run()
	rep2, sh2 := run()
	if rep1.UpdatesAttempted != 1 {
		t.Fatalf("the update never fired: %+v", rep1)
	}
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatalf("chaos replay diverged:\n  run1: %+v\n  run2: %+v", rep1, rep2)
	}
	if err := conformance.CompareMaps(sh1.Maps(), sh2.Maps()); err != nil {
		t.Fatalf("chaos replay map state diverged: %v", err)
	}
}

// TestUpdateEventCoverage owns the two event classes the simulator
// never emits itself (see conformance.TestEventClassCoverage): a clean
// update emits KindUpdatePhase for every stage it traverses, and a
// corrupted new pipeline emits KindCanaryDiverge before the rollback
// phase event.
func TestUpdateEventCoverage(t *testing.T) {
	collect := func(mutate func(*liveupdate.Config)) []obs.Event {
		sink := obs.NewMemSink()
		ucfg := updateCfg(t)
		ucfg.Trace = obs.NewTracer(1<<12, sink)
		if mutate != nil {
			mutate(&ucfg)
		}
		runFirewall(t, nic.ShellConfig{}, &ucfg)
		return sink.Events()
	}

	var stages []liveupdate.Stage
	for _, ev := range collect(nil) {
		if ev.Kind == obs.KindUpdatePhase {
			stages = append(stages, liveupdate.Stage(ev.Aux))
		}
	}
	want := []liveupdate.Stage{
		liveupdate.StageCutover, liveupdate.StageGate, liveupdate.StageShadow,
		liveupdate.StageMigrate, liveupdate.StageCanary, liveupdate.StageDone,
	}
	if !reflect.DeepEqual(stages, want) {
		t.Errorf("clean update phases %v, want %v", stages, want)
	}

	diverged, rolledBack := false, false
	for _, ev := range collect(func(c *liveupdate.Config) {
		c.Faults = faults.New(faults.Single(faults.SEUMapEntry, 0.5, 7))
	}) {
		switch ev.Kind {
		case obs.KindCanaryDiverge:
			diverged = true
		case obs.KindUpdatePhase:
			if liveupdate.Stage(ev.Aux) == liveupdate.StageRolledBack {
				rolledBack = diverged && liveupdate.Stage(ev.Aux2) == liveupdate.StageCanary
			}
		}
	}
	if !diverged {
		t.Error("SEU canary never emitted KindCanaryDiverge")
	}
	if !rolledBack {
		t.Error("no canary rollback phase event after the divergence")
	}
}

// TestUpdateMetrics asserts the liveupdate.* instruments register and
// count when a registry is attached.
func TestUpdateMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	ucfg := updateCfg(t)
	ucfg.Metrics = reg
	rep, _ := runFirewall(t, nic.ShellConfig{}, &ucfg)
	if rep.UpdatesCompleted != 1 {
		t.Fatalf("update did not complete: %q", rep.UpdateFailure)
	}
	for name, want := range map[string]uint64{
		liveupdate.MetricMigrated: rep.MigratedEntries,
		liveupdate.MetricCanaried: rep.CanariedPackets,
		liveupdate.MetricHeld:     rep.HeldPackets,
	} {
		if got, ok := reg.CounterValue(name); !ok || got != want {
			t.Errorf("%s = %d (registered %v), report says %d", name, got, ok, want)
		}
	}
}
