package fleet

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/durable"
	"ehdl/internal/faults"
	"ehdl/internal/hwsim"
	"ehdl/internal/nic"
	"ehdl/internal/obs"
	"ehdl/internal/protect"
	"ehdl/internal/tenant"
)

// goldenPath holds the goldenRun of every goldenRow as recorded with the
// sequential controller (one goroutine walking its shards in id order),
// the commit before devices were served concurrently.
const goldenPath = "testdata/reports.json"

// goldenRun is everything a fleet run lets an observer see: the report,
// the state digest each epoch committed to the journal, and the event
// stream in emission order.
type goldenRun struct {
	Report  Report      `json:"report"`
	Digests []string    `json:"digests"`
	Events  []obs.Event `json:"events"`
}

// goldenRow is one fixed fleet run. Every row runs journaled and traced;
// TestFleetJournalFreshRunMatchesPlain already holds that neither
// perturbs execution.
type goldenRow struct {
	name   string
	epochs int
	cfg    func(t *testing.T) Config
}

// hairTrigger is a protected shell whose watchdog trips on the first
// frames: with an unbounded recovery budget every device recovers and is
// drained; with a budget of one it dies mid-serve.
func hairTrigger(maxRecoveries int) nic.ShellConfig {
	return nic.ShellConfig{Sim: hwsim.Config{
		Protection:            protect.LevelECC,
		WatchdogCycles:        2,
		MaxRecoveries:         maxRecoveries,
		RecoveryBackoffCycles: 4,
	}}
}

func goldenRows() []goldenRow {
	return []goldenRow{
		{
			// The bench's fleet_tenants workload, seed 1.
			name: "tenants/bench", epochs: 3,
			cfg: func(t *testing.T) Config {
				specs, err := tenant.ParseSpecList("firewall:0.4,router:0.3,dnat:0.3", nic.ShellConfig{})
				if err != nil {
					t.Fatal(err)
				}
				return Config{Devices: 4, EpochPackets: 4096, Seed: 1, Tenants: specs}
			},
		},
		{
			name: "toy/verify", epochs: 6,
			cfg: func(t *testing.T) Config {
				return Config{Devices: 4, App: apps.Toy(), Seed: 11, EpochPackets: 256, Verify: true}
			},
		},
		{
			// Two kills in one epoch (device order decides the event
			// order), a corruption the mirror must catch, and a kill and a
			// corruption aimed at the same device in the same epoch.
			name: "toy/kill-corrupt", epochs: 10,
			cfg: func(t *testing.T) Config {
				return Config{
					Devices: 6, App: apps.Toy(), Seed: 23, EpochPackets: 300, Verify: true,
					KillAt:    map[int][]int{3: {4, 1}, 6: {0}},
					CorruptAt: map[int][]int{2: {2}, 6: {0}},
				}
			},
		},
		{
			// Fault campaigns on hair-trigger protected shells: devices
			// drain, cool down for a jittered spell drawn from the fleet
			// RNG in device order, and re-admit.
			name: "toy/chaos-drain-readmit", epochs: 12,
			cfg: func(t *testing.T) Config {
				return Config{
					Devices: 4, App: apps.Toy(), Seed: 47, EpochPackets: 128, Verify: true,
					shell: hairTrigger(-1), Chaos: faults.Profile(0.6, 47),
				}
			},
		},
		{
			name: "toy/rollout-commit", epochs: 12,
			cfg: func(t *testing.T) Config {
				return Config{Devices: 4, App: apps.Toy(), Seed: 11, EpochPackets: 256, Verify: true, Update: toyUpdate(t)}
			},
		},
		{
			name: "toy/rollout-halt", epochs: 12,
			cfg: func(t *testing.T) Config {
				u := toyUpdate(t)
				u.shadowChaos = map[int]faults.Config{1: faults.Single(faults.SEUMapEntry, 0.9, 99)}
				return Config{Devices: 4, App: apps.Toy(), Seed: 31, EpochPackets: 256, Update: u}
			},
		},
		{
			// A recovery budget of one: every device dies mid-serve in the
			// first epoch and the rest of the run is unroutable.
			name: "toy/mid-serve-death", epochs: 3,
			cfg: func(t *testing.T) Config {
				return Config{Devices: 3, App: apps.Toy(), Seed: 5, EpochPackets: 192, shell: hairTrigger(1)}
			},
		},
		{
			// A verified run with a mid-run kill, journaled over an odd
			// epoch count.
			name: "toy/journaled", epochs: 7,
			cfg: func(t *testing.T) Config {
				return Config{Devices: 3, App: apps.Toy(), Seed: 61, EpochPackets: 96, Verify: true,
					KillAt: map[int][]int{4: {2}}}
			},
		},
	}
}

func (row goldenRow) run(t *testing.T) goldenRun {
	t.Helper()
	cfg := row.cfg(t)
	sink := obs.NewMemSink()
	cfg.JournalDir = t.TempDir()
	cfg.Trace = obs.NewTracer(0, sink)
	cfg.metrics = obs.NewRegistry()
	rep, _ := mustRun(t, cfg, row.epochs)
	if !rep.Accounted() {
		t.Fatalf("%s: loss books don't balance: %+v", row.name, rep)
	}
	out := goldenRun{Report: rep, Events: sink.Events()}
	j, recs, _, err := durable.OpenJournal(filepath.Join(cfg.JournalDir, journalFileName), durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	for _, r := range recs {
		if r.Type != recEpoch {
			continue
		}
		var er epochRec
		if err := json.Unmarshal(r.Payload, &er); err != nil {
			t.Fatal(err)
		}
		out.Digests = append(out.Digests, er.Digest)
	}
	if len(out.Digests) != row.epochs {
		t.Fatalf("%s: journal holds %d epoch digests, ran %d epochs", row.name, len(out.Digests), row.epochs)
	}
	return out
}

// TestGoldenFleetRuns holds the concurrent controller to what the
// sequential one produced, byte for byte: report JSON, per-epoch journal
// digests and the obs event sequence. A missing golden file is recorded
// and the test fails, so a fresh recording is always a reviewed diff.
func TestGoldenFleetRuns(t *testing.T) {
	rows := goldenRows()
	raw, err := os.ReadFile(goldenPath)
	if os.IsNotExist(err) {
		got := map[string]goldenRun{}
		for _, row := range rows {
			got[row.name] = row.run(t)
		}
		out, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing: recorded %d rows, review and re-run", goldenPath, len(got))
	}
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(rows) {
		t.Errorf("%s holds %d rows, the table %d", goldenPath, len(want), len(rows))
	}
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			w, ok := want[row.name]
			if !ok {
				t.Fatalf("no golden run")
			}
			var compact bytes.Buffer
			if err := json.Compact(&compact, w); err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(row.run(t))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, compact.Bytes()) {
				t.Errorf("run diverged from the sequential controller's:\n got  %s\n want %s", got, compact.Bytes())
			}
		})
	}
}

// TestFleetSameRunAtAnyGOMAXPROCS: one worker thread (the device
// goroutines run one after another) and four (they overlap) produce the
// same report, digests and event sequence, in one test binary.
func TestFleetSameRunAtAnyGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, row := range goldenRows() {
		row := row
		t.Run(row.name, func(t *testing.T) {
			runtime.GOMAXPROCS(1)
			one := row.run(t)
			runtime.GOMAXPROCS(4)
			four := row.run(t)
			if !reflect.DeepEqual(one, four) {
				a, _ := json.Marshal(one)
				b, _ := json.Marshal(four)
				t.Errorf("GOMAXPROCS changed the run:\n 1: %s\n 4: %s", a, b)
			}
		})
	}
}
