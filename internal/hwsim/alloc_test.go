//go:build !race

// AllocsPerRun interacts badly with the race detector's instrumented
// allocator, so this file sits outside the -race test gate; the same
// code paths run (with allocation untested) in the regular suite.

package hwsim

import "testing"

// TestZeroAllocsPerPacket is the pooled lifecycle's contract: once the
// flows are known (map entries inserted, value handles bound) and the
// job pool has grown to the working set, inject → step → retire
// performs zero heap allocations without KeepData — including the
// elastic-buffer snapshot every leakybucket frame takes and the flush
// recalls its Zipf traffic provokes.
func TestZeroAllocsPerPacket(t *testing.T) {
	for _, l := range lifecycleLoads {
		t.Run(l.name, func(t *testing.T) {
			// Few enough flows that the warm-up pass sees every one; the
			// hotter Zipf head flushes more, so the pace is halved to keep
			// the ingress queue (and with it the pool) from growing.
			const flows = 256
			cyclesPerFrame := 2 * l.cyclesPerFrame
			sim, ring := newLoadedSim(t, l.app(), Config{}, flows, l.dist, 4096)
			retired := 0
			sim.OnComplete(func(Result) { retired++ })
			i := 0
			frame := func() {
				sim.Inject(ring[i%len(ring)])
				i++
				for c := 0; c < cyclesPerFrame; c++ {
					if err := sim.Step(); err != nil {
						t.Fatal(err)
					}
				}
			}
			for range ring {
				frame()
			}
			before, pool := sim.Stats(), sim.jobsAllocated
			allocs := testing.AllocsPerRun(2000, frame)
			after := sim.Stats()

			if allocs != 0 {
				t.Errorf("%.2f allocs per frame in steady state, want 0", allocs)
			}
			if sim.jobsAllocated != pool {
				t.Errorf("job pool grew from %d to %d: the load outran the pipeline, not a steady state", pool, sim.jobsAllocated)
			}
			if after.QueueDrops != 0 {
				t.Errorf("%d frames dropped at ingress: the measured loop did not retire what it injected", after.QueueDrops)
			}
			if retired < 2000 {
				t.Errorf("only %d frames retired", retired)
			}
			if l.name == "leakybucket" && after.Flushes == before.Flushes {
				t.Error("no flush fired inside the measured window: the recall path went unmeasured")
			}
		})
	}
}
