package hwsim

import (
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/core"
	"ehdl/internal/pktgen"
)

// lifecycleLoads are the two packet-lifecycle workloads the allocation
// gate and BenchmarkInterpreter share: leakybucket under Zipf traffic (a
// read-modify-write per frame, RAW-hazard flushes firing) and firewall
// (lookups and conditional inserts, no flushes).
var lifecycleLoads = []struct {
	name  string
	app   func() *apps.App
	flows int
	dist  pktgen.Distribution
}{
	{"leakybucket", apps.LeakyBucket, 50000, pktgen.Zipf},
	{"firewall", apps.Firewall, 10000, pktgen.Uniform},
}

// newLoadedSim builds an interpreter for app and a ring of its traffic,
// with the helper clock left on the pipeline cycle (leakybucket leaks by
// it).
func newLoadedSim(tb testing.TB, app *apps.App, flows int, dist pktgen.Distribution, frames int) (*Sim, [][]byte) {
	tb.Helper()
	prog, err := app.Program()
	if err != nil {
		tb.Fatal(err)
	}
	pl, err := core.Compile(prog, core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	sim, err := New(pl, Config{})
	if err != nil {
		tb.Fatal(err)
	}
	if err := app.Setup(sim.Maps()); err != nil {
		tb.Fatal(err)
	}
	cfg := app.Traffic
	cfg.Flows, cfg.Distribution, cfg.Seed = flows, dist, 1
	return sim, pktgen.NewGenerator(cfg).Batch(frames)
}

// BenchmarkInterpreter times the interpreter's packet lifecycle —
// inject, step at the offered pace, retire — in ns/frame with the
// allocation count beside it: the bench harness's hwsim.exec_ns,
// reproducible with `go test -bench Interpreter ./internal/hwsim`.
func BenchmarkInterpreter(b *testing.B) {
	// 125 Mpps at 250 MHz: what leaky_zipf_interp offers, and a rate
	// leakybucket sustains without its ingress queue growing.
	const cyclesPerFrame = 2
	for _, l := range lifecycleLoads {
		b.Run(l.name, func(b *testing.B) {
			sim, ring := newLoadedSim(b, l.app(), l.flows, l.dist, 16384)
			drive := func(frames int) {
				for i := 0; i < frames || sim.Busy(); i++ {
					if i < frames {
						sim.Inject(ring[i%len(ring)])
					}
					for c := 0; c < cyclesPerFrame; c++ {
						if err := sim.Step(); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			drive(len(ring)) // flow tables fill, the job pool grows
			b.ReportAllocs()
			b.ResetTimer()
			drive(b.N)
		})
	}
}
