//go:build !race

package pktgen

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"
)

// TestBatchAllocationsFlat: a batch is one arena and one slice header
// table, so 16 384 frames cost what one frame costs. The collector is
// off while it counts: a cycle that a megabyte arena starts allocates
// objects of the runtime's own.
func TestBatchAllocationsFlat(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := NewGenerator(GeneratorConfig{Flows: 10000, Seed: 1})
	one := testing.AllocsPerRun(20, func() { g.Batch(1) })
	many := testing.AllocsPerRun(5, func() { g.Batch(16384) })
	if one != many || many > 2 {
		t.Errorf("Batch(1) allocates %.0f objects, Batch(16384) %.0f; want the same, at most 2", one, many)
	}
}

// TestAppendNextIntoSizedArena: stamping a frame into an arena with
// room for it allocates nothing, under either distribution.
func TestAppendNextIntoSizedArena(t *testing.T) {
	for _, dist := range []Distribution{Uniform, Zipf} {
		g := NewGenerator(GeneratorConfig{Flows: 50000, Distribution: dist, Seed: 1})
		arena := make([]byte, 0, 64)
		if n := testing.AllocsPerRun(1000, func() { g.AppendNext(arena[:0]) }); n != 0 {
			t.Errorf("distribution %d: AppendNext into a sized arena allocates %.1f objects", dist, n)
		}
	}
}

// TestNewGeneratorCostFlat: the flow set is arithmetic, so building a
// generator costs the same objects and bytes for one flow as for
// 50 000. Each cost is the least of several MemStats windows: the
// runtime's own background goroutines (the scavenger arming its timer,
// the unique package's cleanup loop taking its first sudog) allocate
// the first time they are scheduled, which can fall inside a window,
// and allocations of others only ever add to one.
func TestNewGeneratorCostFlat(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, dist := range []Distribution{Uniform, Zipf} {
		cost := func(flows int) (allocs, bytes uint64) {
			const runs, windows = 20, 5
			cfg := GeneratorConfig{Flows: flows, Distribution: dist, Seed: 1}
			NewGenerator(cfg)
			allocs, bytes = math.MaxUint64, math.MaxUint64
			for w := 0; w < windows; w++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < runs; i++ {
					NewGenerator(cfg)
				}
				runtime.ReadMemStats(&after)
				allocs = min(allocs, (after.Mallocs-before.Mallocs)/runs)
				bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/runs)
			}
			return allocs, bytes
		}
		a1, b1 := cost(1)
		aN, bN := cost(50000)
		if a1 != aN || b1 != bN {
			t.Errorf("distribution %d: NewGenerator costs %d objects / %d B at 1 flow, %d / %d B at 50 000",
				dist, a1, b1, aN, bN)
		}
	}
}
