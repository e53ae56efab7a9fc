package conformance

import (
	"testing"

	"ehdl/internal/core"
	"ehdl/internal/hwsim"
	"ehdl/internal/pktgen"
)

// TestDifferentialApps runs every evaluation application over its own
// seeded traffic through the reference interpreter and the pipeline
// simulator, asserting identical verdicts, packet bytes and final map
// state (the table-driven heart of the conformance suite).
func TestDifferentialApps(t *testing.T) {
	n := 400
	if testing.Short() {
		n = 80
	}
	for _, app := range allApps() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			cfg := app.Traffic
			cfg.Seed = 0xC0FFEE
			packets := pktgen.NewGenerator(cfg).Batch(n)
			if err := DiffAppThreeWay(app, packets, Config{}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDifferentialStallPolicy diffs the stall-based hazard handling the
// paper evaluates and rejects: slower, but it must still be correct.
func TestDifferentialStallPolicy(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 50
	}
	for _, app := range allApps() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			cfg := app.Traffic
			cfg.Seed = 0xFACE
			packets := pktgen.NewGenerator(cfg).Batch(n)
			err := DiffAppThreeWay(app, packets, Config{sim: hwsim.Config{Policy: hwsim.PolicyStall}})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDifferentialSingleFlow drives every app with a single flow — the
// paper's hazard worst case (Section 5.3), maximising RAW flushes and
// WAR shadows — and still demands bit-identical results.
func TestDifferentialSingleFlow(t *testing.T) {
	n := 250
	if testing.Short() {
		n = 60
	}
	for _, app := range allApps() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			cfg := app.Traffic
			cfg.Flows = 1
			cfg.Seed = 7
			packets := pktgen.NewGenerator(cfg).Batch(n)
			if err := DiffAppThreeWay(app, packets, Config{}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDifferentialTracedRunIsIdentical proves the zero-interference
// contract of the observability layer: a traced, metered pipeline run
// produces exactly the same verdicts, bytes and map state as the
// reference — instrumentation observes, never perturbs.
func TestDifferentialTracedRunIsIdentical(t *testing.T) {
	n := 150
	if testing.Short() {
		n = 40
	}
	for _, app := range allApps() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			cfg := app.Traffic
			cfg.Seed = 0xC0FFEE
			packets := pktgen.NewGenerator(cfg).Batch(n)
			tr, reg := newTestObs()
			err := DiffAppThreeWay(app, packets, Config{sim: hwsim.Config{Trace: tr, Metrics: reg}})
			if err != nil {
				t.Fatal(err)
			}
			if tr.Emitted() == 0 {
				t.Fatal("traced run emitted no events")
			}
		})
	}
}

// TestDifferentialAblations diffs the firewall under the compiler
// ablations of Section 5.4 — each one reshapes the pipeline and must
// not change its semantics.
func TestDifferentialAblations(t *testing.T) {
	ablations := map[string]core.Options{
		"no-ilp":     {DisableILP: true},
		"no-pruning": {DisablePruning: true},
		"no-fusion":  {DisableFusion: true},
		"no-elision": {DisableBoundsElision: true},
		"no-atomics": {DisableAtomics: true},
	}
	for name, opts := range ablations {
		name, opts := name, opts
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			app := mustApp(t, "firewall")
			cfg := app.Traffic
			cfg.Seed = 99
			packets := pktgen.NewGenerator(cfg).Batch(120)
			if err := DiffAppThreeWay(app, packets, Config{opts: opts}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
