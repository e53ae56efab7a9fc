package conformance

import (
	"fmt"
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/core"
	"ehdl/internal/ebpf"
	"ehdl/internal/maps"
	"ehdl/internal/obs"
)

// newTestObs builds a tracer over an in-memory sink plus a registry,
// the standard observability rig of this suite.
func newTestObs() (*obs.Tracer, *obs.Registry) {
	return obs.NewTracer(0, obs.NewMemSink()), obs.NewRegistry()
}

// memTracer builds a tracer and returns the sink for event assertions.
func memTracer() (*obs.Tracer, *obs.MemSink) {
	sink := obs.NewMemSink()
	return obs.NewTracer(0, sink), sink
}

func mustApp(t *testing.T, name string) *apps.App {
	t.Helper()
	a, ok := apps.ByName(name)
	if !ok {
		t.Fatalf("unknown app %q", name)
	}
	return a
}

// compileAndRun compiles prog under cfg and runs the packets on the
// engine build makes of it.
func compileAndRun(prog *ebpf.Program, build engine, setup func(*maps.Set) error, packets [][]byte, cfg Config) ([]Outcome, *maps.Set, error) {
	pl, err := core.Compile(prog, cfg.opts)
	if err != nil {
		return nil, nil, fmt.Errorf("compile: %w", err)
	}
	return runEngine(pl, build, setup, packets, cfg)
}

// diffProgramFastPath runs packets through the cycle-accurate
// interpreter and the compiled fast path only (no vm reference), both on
// one compiled design. The fuzzer uses it as an exact oracle: both
// engines implement the hardware bounds check identically, so they must
// agree on every input, including malformed frames the elision-aware vm
// oracle cannot judge.
func diffProgramFastPath(prog *ebpf.Program, setup func(*maps.Set) error, packets [][]byte, cfg Config) error {
	pl, err := core.Compile(prog, cfg.opts)
	if err != nil {
		return fmt.Errorf("conformance: compile: %w", err)
	}
	outs, simMaps, err := runEngine(pl, interpreter, setup, packets, cfg)
	if err != nil {
		return fmt.Errorf("conformance: pipeline: %w", err)
	}
	fasts, fastMaps, err := runEngine(pl, fastPath, setup, packets, cfg)
	if err != nil {
		return fmt.Errorf("conformance: fastpath: %w", err)
	}
	for i := range packets {
		if err := CompareOutcome(fasts[i], outs[i]); err != nil {
			return fmt.Errorf("conformance: fastpath vs pipeline: packet %d (%dB): %w", i, len(packets[i]), err)
		}
	}
	return CompareMaps(simMaps, fastMaps)
}

// allApps returns the full conformance surface: the paper's five
// evaluation applications plus the toy example, the leaky bucket and
// the load balancer.
func allApps() []*apps.App {
	names := []string{"toy", "leakybucket", "loadbalancer"}
	out := apps.All()
	for _, n := range names {
		a, ok := apps.ByName(n)
		if !ok {
			panic("conformance: unknown app " + n)
		}
		out = append(out, a)
	}
	return out
}
