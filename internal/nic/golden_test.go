package nic

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/core"
	"ehdl/internal/faults"
	"ehdl/internal/hwsim"
	"ehdl/internal/liveupdate"
	"ehdl/internal/maps"
	"ehdl/internal/obs"
	"ehdl/internal/pktgen"
	"ehdl/internal/protect"
)

// goldenPath holds the Report of every goldenRow as recorded at the
// commit before the serving loops were merged (PR 12). The refactored
// shell must reproduce each of them.
const goldenPath = "testdata/reports.json"

// metricsGoldenPath holds the metrics registry of every metered
// goldenRow, as Registry.Render prints it (`ehdl sim -metrics`).
const metricsGoldenPath = "testdata/metrics.golden"

// goldenRow is one fixed run: a fresh shell, optionally warmed by an
// earlier run, optionally with a live update armed.
type goldenRow struct {
	name    string
	app     func() *apps.App
	traffic func(pktgen.GeneratorConfig) pktgen.GeneratorConfig
	cfg     func() ShellConfig
	count   int
	pps     float64
	// warmPps, when set, drives `count` frames at that rate first and
	// discards the report — the row is the shell's second run.
	warmPps float64
	// update, when set, builds the live update armed at count/2.
	update func(t *testing.T, app *apps.App) liveupdate.Config
}

func zipf(t pktgen.GeneratorConfig) pktgen.GeneratorConfig {
	t.Flows, t.Distribution = 50000, pktgen.Zipf
	return t
}

func sameProgram(t *testing.T, app *apps.App) liveupdate.Config {
	prog, err := app.Program()
	if err != nil {
		t.Fatal(err)
	}
	return liveupdate.Config{Prog: prog, Setup: app.SetupHost}
}

func refusedSetup(t *testing.T, app *apps.App) liveupdate.Config {
	ucfg := sameProgram(t, app)
	ucfg.Setup = func(*maps.Set) error { return errors.New("setup refused") }
	return ucfg
}

func goldenRows() []goldenRow {
	var rows []goldenRow
	engines := []struct {
		name string
		cfg  ShellConfig
	}{
		{"interp-q1", ShellConfig{}},
		{"compiled-q1", ShellConfig{FastPath: true}},
		{"interp-q4", ShellConfig{Queues: 4, Sim: hwsim.Config{InputQueuePackets: 64}}},
		{"compiled-q4", ShellConfig{Queues: 4, FastPath: true, Sim: hwsim.Config{InputQueuePackets: 64}}},
	}
	workloads := []struct {
		name    string
		app     func() *apps.App
		traffic func(pktgen.GeneratorConfig) pktgen.GeneratorConfig
		pps     float64
	}{
		{"toy", apps.Toy, nil, 148.8e6},
		{"firewall", apps.Firewall, nil, 148.8e6},
		{"leakybucket-zipf", apps.LeakyBucket, zipf, 125e6},
	}
	for _, w := range workloads {
		for _, e := range engines {
			cfg := e.cfg
			rows = append(rows, goldenRow{
				name: w.name + "/" + e.name, app: w.app, traffic: w.traffic,
				cfg: func() ShellConfig { return cfg }, count: 4096, pps: w.pps,
			})
		}
	}
	// Every feature that attaches to the loop, single- and multi-queue.
	for _, q := range []int{1, 4} {
		q := q
		base := func() ShellConfig {
			return ShellConfig{Queues: q, Sim: hwsim.Config{InputQueuePackets: 64}}
		}
		suffix := "-q1"
		if q == 4 {
			suffix = "-q4"
		}
		rows = append(rows,
			goldenRow{name: "firewall/faults" + suffix, app: apps.Firewall, count: 4096, pps: 100e6,
				cfg: func() ShellConfig {
					c := base()
					c.Faults = faults.Profile(1.0, 7)
					c.Sim.WatchdogCycles = 100000
					return c
				}},
			goldenRow{name: "firewall/secded" + suffix, app: apps.Firewall, count: 4096, pps: 100e6,
				cfg: func() ShellConfig {
					c := base()
					c.Faults = faults.Single(faults.SEUMapEntry, 0.004, 11)
					c.Sim.Protection, c.Sim.MaxRecoveries = protect.LevelECC, -1
					return c
				}},
			goldenRow{name: "leakybucket/metrics" + suffix, app: apps.LeakyBucket, traffic: zipf, count: 4096, pps: 125e6,
				cfg: func() ShellConfig {
					c := base()
					c.Sim.Metrics = obs.NewRegistry()
					return c
				}},
			goldenRow{name: "toy/update-committed" + suffix, app: apps.Toy, count: 2048, pps: 100e6,
				cfg: base, update: sameProgram},
			goldenRow{name: "toy/update-rolled-back" + suffix, app: apps.Toy, count: 2048, pps: 100e6,
				cfg: base, update: refusedSetup},
			// The second run of a shell whose first run overloaded it:
			// every latency figure must be the second run's own.
			goldenRow{name: "firewall/second-run-compiled" + suffix, app: apps.Firewall, count: 4096, pps: 10e6, warmPps: 600e6,
				cfg: func() ShellConfig {
					c := base()
					c.FastPath = true
					return c
				}},
		)
	}
	return rows
}

// staleMax names the rows whose recorded MaxLatencyNs is the defect
// this PR fixes (the compiled single-queue loop reported the engine's
// lifetime high-water mark): the field is checked against the
// interpreter's figure by TestMaxLatencyIsPerRun instead.
var staleMax = map[string]bool{"firewall/second-run-compiled-q1": true}

// run drives the row on a fresh shell configured by cfg (row.cfg()'s).
func (row goldenRow) run(t *testing.T, cfg ShellConfig) Report {
	t.Helper()
	app := row.app()
	sh := newShell(t, app, core.Options{}, cfg)
	traffic := app.Traffic
	if row.traffic != nil {
		traffic = row.traffic(traffic)
	}
	gen := pktgen.NewGenerator(traffic)
	if row.warmPps > 0 {
		if _, err := sh.RunLoad(gen.Next, row.count, row.warmPps); err != nil {
			t.Fatalf("%s: warm run: %v", row.name, err)
		}
	}
	if row.update != nil {
		if err := sh.ScheduleUpdate(row.count/2, row.update(t, app)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := sh.RunLoad(gen.Next, row.count, row.pps)
	if err != nil {
		t.Fatalf("%s: %v", row.name, err)
	}
	return rep
}

// TestGoldenReports holds the shell to the reports recorded before the
// refactor, field for field; a recorded key the Report no longer has
// fails the decode. Floats compare exactly, except the two latency
// figures on single-queue rows: those now fold the engines' integer
// latency sum instead of adding per-packet floats, which moves the last
// bits (1e-9 relative). A missing golden file is recorded and the test
// fails, so a fresh recording is always a reviewed diff.
func TestGoldenReports(t *testing.T) {
	rows := goldenRows()
	raw, err := os.ReadFile(goldenPath)
	if os.IsNotExist(err) {
		got := map[string]Report{}
		for _, row := range rows {
			got[row.name] = row.run(t, row.cfg())
		}
		out, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
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
	// A key the Report no longer has fails: a removed or renamed field
	// is a deliberate re-recording, never a silent pass.
	var want map[string]Report
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&want); err != nil {
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
				t.Fatalf("no golden report")
			}
			// Through JSON like the recording, so nil and empty agree.
			var g Report
			if enc, err := json.Marshal(row.run(t, row.cfg())); err != nil {
				t.Fatal(err)
			} else if err := json.Unmarshal(enc, &g); err != nil {
				t.Fatal(err)
			}
			// Field by field, into embedded records, so a mismatch names
			// the counter.
			var walk func(gv, wv reflect.Value)
			walk = func(gv, wv reflect.Value) {
				for i := 0; i < gv.NumField(); i++ {
					f := gv.Type().Field(i)
					if f.Anonymous {
						walk(gv.Field(i), wv.Field(i))
						continue
					}
					a, b := gv.Field(i).Interface(), wv.Field(i).Interface()
					switch {
					case f.Name == "MaxLatencyNs" && staleMax[row.name]:
					case (f.Name == "AvgLatencyNs" || f.Name == "MaxLatencyNs") && g.PerQueue == nil:
						if af, bf := a.(float64), b.(float64); math.Abs(af-bf) > 1e-9*math.Abs(bf) {
							t.Errorf("%s = %v, want %v (1e-9 relative)", f.Name, af, bf)
						}
					case !reflect.DeepEqual(a, b):
						t.Errorf("%s = %v, want %v", f.Name, a, b)
					}
				}
			}
			walk(reflect.ValueOf(g), reflect.ValueOf(w))
		})
	}
}

// TestGoldenMetrics holds the registry of every metered row to its
// recording byte for byte: every counter and histogram series the
// simulator meters, not a summary of a few. Same protocol as
// TestGoldenReports: a missing file is recorded and the test fails.
func TestGoldenMetrics(t *testing.T) {
	var got bytes.Buffer
	for _, row := range goldenRows() {
		cfg := row.cfg()
		if cfg.Sim.Metrics == nil {
			continue
		}
		row.run(t, cfg)
		fmt.Fprintf(&got, "# %s\n", row.name)
		if err := cfg.Sim.Metrics.Render(&got); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(metricsGoldenPath)
	if os.IsNotExist(err) {
		if err := os.WriteFile(metricsGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing: recorded, review and re-run", metricsGoldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("registry differs from %s:\n%s", metricsGoldenPath, got.Bytes())
	}
}
