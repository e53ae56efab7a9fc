package rss

import (
	"runtime"
	"sync"
	"testing"

	"ehdl/internal/pktgen"
)

// TestOfferAllocatesNothing: with consumers draining the sinks, offering
// many rotations' worth of batches on every queue allocates nothing —
// each queue cycles through its fixed set of buffers.
func TestOfferAllocatesNothing(t *testing.T) {
	const queues, batch = 4, 4
	d, err := NewDispatcher(DispatcherConfig{Queues: queues, Batch: batch})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for q := 0; q < queues; q++ {
		wg.Add(1)
		go func(in <-chan []Item) {
			defer wg.Done()
			for range in {
			}
		}(d.Sink(q))
	}
	frames := pktgen.NewGenerator(pktgen.GeneratorConfig{Flows: 64, PacketLen: 64, Seed: 3}).Batch(256)
	const perRun = 64 * queues * rotation * batch
	const runs = 5
	allocs := testing.AllocsPerRun(runs, func() {
		for i := 0; i < perRun; i++ {
			d.Offer(frames[i%len(frames)])
		}
	})
	d.Close()
	wg.Wait()
	for q, n := range d.perQueue {
		// AllocsPerRun adds one warm-up call to the measured runs.
		if n < (runs+1)*10*rotation*batch {
			t.Fatalf("queue %d saw %d frames, fewer than ten rotations of batches per run", q, n)
		}
	}
	if allocs != 0 {
		t.Fatalf("Offer allocates %v times per %d frames, want 0", allocs, perRun)
	}
}

// TestEngineSessionAllocationsFlat: what one engine session (Start,
// Offer x N, Drain) allocates does not grow with N — the hand-off costs
// O(queues) per session, not O(batches).
func TestEngineSessionAllocationsFlat(t *testing.T) {
	e, err := NewEngine(compileApp(t, "toy"), Config{Queues: 4, FastPath: true})
	if err != nil {
		t.Fatal(err)
	}
	setupApp(t, "toy", e.HostMaps())
	frames := pktgen.NewGenerator(pktgen.GeneratorConfig{Flows: 64, PacketLen: 64, Seed: 5}).Batch(1024)
	session := func(n int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := e.Start(1, nil); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			e.Offer(frames[i%len(frames)])
		}
		if _, err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	session(16 << 10) // warm-up
	small, big := session(16<<10), session(256<<10)
	// The extra 240 Ki frames are 3 840 batches of DefaultBatch: one
	// allocation per batch would show as thousands.
	if big > small+16 {
		t.Fatalf("a session of 256 Ki frames allocates %d times, one of 16 Ki %d: the hand-off allocates per batch", big, small)
	}
}

// TestHandOffReuseIsSafe: a consumer slow enough to keep every sink full
// (a yield per item) sees each arrival exactly once, with its own frame
// and strictly increasing due cycles per queue, at batch sizes that
// cycle the rotation quickly. Refilling a buffer the consumer still
// reads would show as a duplicate or overwritten Due (and, under -race,
// as a race).
func TestHandOffReuseIsSafe(t *testing.T) {
	const count = 3000
	frames := pktgen.NewGenerator(pktgen.GeneratorConfig{Flows: 64, PacketLen: 64, Seed: 11}).Batch(count)
	for _, queues := range []int{1, 4} {
		for batch := 1; batch <= 3; batch++ {
			d, err := NewDispatcher(DispatcherConfig{Queues: queues, Batch: batch})
			if err != nil {
				t.Fatal(err)
			}
			seen := make([][]Item, queues)
			var wg sync.WaitGroup
			for q := 0; q < queues; q++ {
				wg.Add(1)
				go func(q int, in <-chan []Item) {
					defer wg.Done()
					for b := range in {
						for i := range b {
							runtime.Gosched()
							seen[q] = append(seen[q], b[i])
						}
					}
				}(q, d.Sink(q))
			}
			for _, f := range frames {
				d.Offer(f)
			}
			d.Close()
			wg.Wait()

			got := make([]int, count)
			for q, items := range seen {
				for i, it := range items {
					if i > 0 && it.Due <= items[i-1].Due {
						t.Fatalf("%d queues, batch %d: queue %d due %d after %d", queues, batch, q, it.Due, items[i-1].Due)
					}
					if it.Due >= count {
						t.Fatalf("%d queues, batch %d: queue %d due %d out of range", queues, batch, q, it.Due)
					}
					if &it.Data[0] != &frames[it.Due][0] {
						t.Fatalf("%d queues, batch %d: due %d carries another arrival's frame", queues, batch, it.Due)
					}
					got[it.Due]++
				}
			}
			for due, n := range got {
				if n != 1 {
					t.Fatalf("%d queues, batch %d: arrival %d delivered %d times", queues, batch, due, n)
				}
			}
		}
	}
}
