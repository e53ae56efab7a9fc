package conformance

import (
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/core"
	"ehdl/internal/hwsim"
	"ehdl/internal/maps"
	"ehdl/internal/obs"
	"ehdl/internal/pktgen"
	"ehdl/internal/rss"
)

// multiQueueRun pushes packets through an rss.Engine at the given queue
// count with the helper clock pinned to zero (matching the rest of the
// suite) and payload retention on, and returns the outcomes indexed by
// global arrival sequence plus the session stats and the merged host
// map view. With fastPath set, every replica must actually run the
// compiled engine — a silent fallback would make the differential
// vacuous, so it fails the test.
func multiQueueRun(t *testing.T, app *apps.App, packets [][]byte, queues int, fastPath bool) ([]Outcome, rss.RunStats, *maps.Set) {
	t.Helper()
	prog, err := app.Program()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.Compile(prog, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := rss.NewEngine(pl, rss.Config{Queues: queues, FastPath: fastPath})
	if err != nil {
		t.Fatal(err)
	}
	if fastPath && e.Fallback() != "" {
		t.Fatalf("%d queues: engine fell back to the interpreter on an eligible config", queues)
	}
	e.SetClock(func() uint64 { return 0 })
	e.KeepData(true)
	if app.SetupHost != nil {
		if err := app.SetupHost(e.HostMaps()); err != nil {
			t.Fatal(err)
		}
	}

	// Packets flow one way through the engine, so a completion carries
	// what its replica knows: the queue and the replica-local injection
	// sequence. Offer returns the queue, so the n-th arrival steered to a
	// queue is the replica's n-th injection — that recovers the arrival
	// index. Each worker appends only to its own queue's slice; Drain's
	// join orders those writes before the reads below.
	arrivals := make([][]int, queues)
	retired := make([][]hwsim.Result, queues)
	err = e.Start(1, func(c rss.Completion) {
		retired[c.Queue] = append(retired[c.Queue], c.Res)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range packets {
		q := e.Offer(p)
		arrivals[q] = append(arrivals[q], i)
	}
	rs, err := e.Drain()
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]Outcome, len(packets))
	seen := make([]bool, len(packets))
	completed := 0
	for q, results := range retired {
		for _, res := range results {
			if res.Seq >= uint64(len(arrivals[q])) {
				t.Fatalf("%d queues: queue %d retired injection %d of %d steered", queues, q, res.Seq, len(arrivals[q]))
			}
			i := arrivals[q][res.Seq]
			if seen[i] {
				t.Fatalf("%d queues: arrival %d retired twice", queues, i)
			}
			seen[i] = true
			outs[i] = Outcome{
				Action:          res.Action,
				RedirectIfindex: res.RedirectIfindex,
				Data:            res.Data,
			}
			completed++
		}
	}
	if completed != len(packets) {
		t.Fatalf("%d queues: %d of %d packets completed", queues, completed, len(packets))
	}
	return outs, rs, e.HostMaps()
}

// TestRSSFlowConformance is the scale-out contract: for every
// application, the multi-queue engine at 1, 2, 4 and 8 queues must be
// observationally identical to the single-pipeline simulator on the
// same traffic — per-packet verdicts, redirect targets and rewritten
// bytes match arrival by arrival (which subsumes per-flow sequence
// identity, since flows are pinned to queues and per-queue order is
// preserved), and the merged per-CPU-style map state equals the
// single-pipeline final state entry for entry: counters sum to equal
// totals, flow tables union without conflict.
func TestRSSFlowConformance(t *testing.T) {
	for _, app := range allApps() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			cfg := app.Traffic
			if cfg.Flows < 32 {
				// Enough distinct 5-tuples that every indirection bucket
				// class is exercised and all queues see traffic.
				cfg.Flows = 32
			}
			cfg.Seed = 0x55aa
			packets := pktgen.NewGenerator(cfg).Batch(240)

			prog, err := app.Program()
			if err != nil {
				t.Fatal(err)
			}
			base, baseMaps, err := compileAndRun(prog, interpreter, app.SetupHost, packets, Config{})
			if err != nil {
				t.Fatal(err)
			}

			for _, queues := range []int{1, 2, 4, 8} {
				outs, rs, merged := multiQueueRun(t, app, packets, queues, false)
				if rs.MergeConflicts != 0 {
					t.Fatalf("%d queues: %d merge conflicts (flow pinning violated)", queues, rs.MergeConflicts)
				}
				var steered uint64
				active := 0
				for _, qs := range rs.PerQueue {
					steered += qs.Steered
					if qs.Steered > 0 {
						active++
					}
				}
				if steered != uint64(len(packets)) {
					t.Fatalf("%d queues: steered %d of %d arrivals", queues, steered, len(packets))
				}
				if queues > 1 && active < 2 {
					t.Fatalf("%d queues: traffic collapsed onto %d queue(s)", queues, active)
				}
				for i := range packets {
					if err := CompareOutcome(outs[i], base[i]); err != nil {
						flow, _ := pktgen.ParseFlow(packets[i])
						t.Fatalf("%d queues: packet %d (flow %+v): %v", queues, i, flow, err)
					}
				}
				if err := CompareMaps(baseMaps, merged); err != nil {
					t.Fatalf("%d queues: merged state: %v", queues, err)
				}
			}
		})
	}
}

// TestRSSFastPathConformance is the multi-queue leg of the three-way
// differential: for every application at 1, 2, 4 and 8 queues, a fleet
// of compiled replicas must be observationally identical both to the
// interpreted fleet on the same traffic and to the single-pipeline
// reference — per-arrival verdicts, redirect targets and rewritten
// bytes, and the merged host map state entry for entry. Run under
// -race (the Makefile test gate does) this also exercises concurrent
// compiled replicas sharing read-only maps across worker goroutines.
func TestRSSFastPathConformance(t *testing.T) {
	for _, app := range allApps() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			cfg := app.Traffic
			if cfg.Flows < 32 {
				cfg.Flows = 32
			}
			cfg.Seed = 0x55aa
			packets := pktgen.NewGenerator(cfg).Batch(240)

			prog, err := app.Program()
			if err != nil {
				t.Fatal(err)
			}
			base, baseMaps, err := compileAndRun(prog, interpreter, app.SetupHost, packets, Config{})
			if err != nil {
				t.Fatal(err)
			}

			for _, queues := range []int{1, 2, 4, 8} {
				fastOuts, _, fastMerged := multiQueueRun(t, app, packets, queues, true)
				interpOuts, _, interpMerged := multiQueueRun(t, app, packets, queues, false)
				for i := range packets {
					if err := CompareOutcome(fastOuts[i], base[i]); err != nil {
						t.Fatalf("%d queues: packet %d vs reference: %v", queues, i, err)
					}
					if err := CompareOutcome(fastOuts[i], interpOuts[i]); err != nil {
						t.Fatalf("%d queues: packet %d vs interpreted fleet: %v", queues, i, err)
					}
				}
				if err := CompareMaps(baseMaps, fastMerged); err != nil {
					t.Fatalf("%d queues: merged state vs reference: %v", queues, err)
				}
				if err := CompareMaps(interpMerged, fastMerged); err != nil {
					t.Fatalf("%d queues: merged state vs interpreted fleet: %v", queues, err)
				}
			}
		})
	}
}

// queueSteerEvents drives a short multi-queue load with a traced
// dispatcher: every arrival emits one KindQueueSteer event, including
// the queue-0 fallback for a malformed frame.
func queueSteerEvents(t *testing.T) []obs.Event {
	t.Helper()
	app := mustApp(t, "toy")
	prog, err := app.Program()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.Compile(prog, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr, sink := memTracer()
	e, err := rss.NewEngine(pl, rss.Config{Queues: 2, Sim: hwsim.Config{Trace: tr}})
	if err != nil {
		t.Fatal(err)
	}
	e.SetClock(func() uint64 { return 0 })
	if app.SetupHost != nil {
		if err := app.SetupHost(e.HostMaps()); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Start(1, nil); err != nil {
		t.Fatal(err)
	}
	gen := pktgen.NewGenerator(pktgen.GeneratorConfig{Flows: 8, PacketLen: 64, Seed: 21})
	for i := 0; i < 16; i++ {
		e.Offer(gen.Next())
	}
	e.Offer([]byte{1, 2, 3}) // malformed: queue-0 fallback, hash 0
	if _, err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	return sink.Events()
}

// TestQueueSteerEvents checks the steer event contract: one event per
// arrival, sequential global Seq, queue in range in Aux, and the
// malformed fallback recorded as queue 0 with hash 0.
func TestQueueSteerEvents(t *testing.T) {
	var steers []obs.Event
	for _, ev := range queueSteerEvents(t) {
		if ev.Kind == obs.KindQueueSteer {
			steers = append(steers, ev)
		}
	}
	if len(steers) != 17 {
		t.Fatalf("%d steer events, want 17 (one per arrival)", len(steers))
	}
	for i, ev := range steers {
		if ev.Seq != int64(i) {
			t.Fatalf("steer %d carries Seq %d, want the global arrival index", i, ev.Seq)
		}
		if ev.Aux >= 2 {
			t.Fatalf("steer %d names queue %d of a 2-queue engine", i, ev.Aux)
		}
	}
	last := steers[len(steers)-1]
	if last.Aux != 0 || last.Aux2 != 0 {
		t.Fatalf("malformed frame steered to queue %d hash %#x, want the queue-0/hash-0 fallback", last.Aux, last.Aux2)
	}
}
