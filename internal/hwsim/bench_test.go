package hwsim

import (
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/core"
	"ehdl/internal/pktgen"
	"ehdl/internal/vm"
)

// lifecycleLoads are the packet-lifecycle workloads the allocation gate
// and BenchmarkInterpreter share: leakybucket under Zipf traffic (a
// read-modify-write per frame, RAW-hazard flushes firing) and firewall
// (lookups and conditional inserts, no flushes), both with the pipeline
// full — 2 cycles per frame is 125 Mpps at 250 MHz, what
// leaky_zipf_interp offers and a rate leakybucket sustains without its
// ingress queue growing — and firewall again at the 15 cycles per frame
// a fleet_tenants shell sees, where most stages are empty most cycles.
var lifecycleLoads = []struct {
	name           string
	app            func() *apps.App
	flows          int
	dist           pktgen.Distribution
	cyclesPerFrame int
}{
	{"leakybucket", apps.LeakyBucket, 50000, pktgen.Zipf, 2},
	{"firewall", apps.Firewall, 10000, pktgen.Uniform, 2},
	{"firewall-sparse", apps.Firewall, 10000, pktgen.Uniform, 15},
}

// loadApp compiles app and draws a ring of its traffic.
func loadApp(tb testing.TB, app *apps.App, flows int, dist pktgen.Distribution, frames int) (*core.Pipeline, [][]byte) {
	tb.Helper()
	prog, err := app.Program()
	if err != nil {
		tb.Fatal(err)
	}
	pl, err := core.Compile(prog, core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	traffic := app.Traffic
	traffic.Flows, traffic.Distribution, traffic.Seed = flows, dist, 1
	return pl, pktgen.NewGenerator(traffic).Batch(frames)
}

// newLoadedSim builds an interpreter for app and a ring of its traffic,
// with the helper clock left on the pipeline cycle (leakybucket leaks by
// it).
func newLoadedSim(tb testing.TB, app *apps.App, cfg Config, flows int, dist pktgen.Distribution, frames int) (*Sim, [][]byte) {
	tb.Helper()
	pl, ring := loadApp(tb, app, flows, dist, frames)
	sim, err := New(pl, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := app.Setup(sim.Maps()); err != nil {
		tb.Fatal(err)
	}
	return sim, ring
}

// BenchmarkInterpreter times the interpreter's packet lifecycle —
// inject, step at the offered pace, retire — in ns/frame with the
// allocation count beside it: the bench harness's hwsim.exec_ns,
// reproducible with `go test -bench Interpreter ./internal/hwsim`. The
// firewall/one-burst row is the executor alone on the hazard-free table
// (Burst.Run): fastpath.exec_ns less the timing skeleton around it.
func BenchmarkInterpreter(b *testing.B) {
	for _, l := range lifecycleLoads {
		b.Run(l.name, func(b *testing.B) {
			sim, ring := newLoadedSim(b, l.app(), Config{}, l.flows, l.dist, 16384)
			drive := func(frames int) {
				for i := 0; i < frames || sim.Busy(); i++ {
					if i < frames {
						sim.Inject(ring[i%len(ring)])
					}
					for c := 0; c < l.cyclesPerFrame; c++ {
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
	b.Run("firewall/one-burst", func(b *testing.B) {
		app := apps.Firewall()
		pl, ring := loadApp(b, app, 10000, pktgen.Uniform, 16384)
		env, err := vm.NewEnv(pl.Transformed)
		if err != nil {
			b.Fatal(err)
		}
		burst, err := NewBurst(pl, Config{}, env)
		if err != nil {
			b.Fatal(err)
		}
		if err := app.Setup(env.Maps); err != nil {
			b.Fatal(err)
		}
		drive := func(frames int) {
			for i := 0; i < frames; i++ {
				if _, err := burst.Run(ring[i%len(ring)]); err != nil {
					b.Fatal(err)
				}
			}
		}
		drive(len(ring))
		b.ReportAllocs()
		b.ResetTimer()
		drive(b.N)
	})
}
