package conformance

import (
	"testing"

	"ehdl/internal/core"
	"ehdl/internal/pktgen"
)

// TestThreeWayApps runs every evaluation application over its seeded
// traffic through all three engines — reference interpreter,
// cycle-accurate simulator and compiled fast path — asserting identical
// verdicts, packet bytes and final map state between every pair.
func TestThreeWayApps(t *testing.T) {
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

// TestThreeWaySingleFlow drives every app with a single flow — the
// hazard worst case, where the interpreter's flush machinery is
// constantly busy — and demands the fast path still matches bit for
// bit: the proof that hazard handling is invisible in the final
// verdicts and map state the fast path reproduces.
func TestThreeWaySingleFlow(t *testing.T) {
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

// TestThreeWayAblations re-runs the three-way differential under every
// compiler ablation: each reshapes the pipeline the fast path is
// compiled from and must not change its semantics.
func TestThreeWayAblations(t *testing.T) {
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
			for _, appName := range []string{"firewall", "router", "tunnel"} {
				app := mustApp(t, appName)
				cfg := app.Traffic
				cfg.Seed = 99
				packets := pktgen.NewGenerator(cfg).Batch(120)
				if err := DiffAppThreeWay(app, packets, Config{opts: opts}); err != nil {
					t.Fatalf("%s: %v", appName, err)
				}
			}
		})
	}
}

// TestThreeWayMalformed feeds truncated and corrupted frames through
// the interpreter and the fast path: the hardware bounds check must
// fire identically on both (the vm reference cannot judge bounds-
// elided malformed frames, so this pair is the exact oracle).
func TestThreeWayMalformed(t *testing.T) {
	for _, app := range allApps() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := app.Program()
			if err != nil {
				t.Fatal(err)
			}
			packets := fuzzSeedCorpus(0xDEAD)
			if err := diffProgramFastPath(prog, app.SetupHost, packets, Config{}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
