package conformance

import (
	"testing"

	"ehdl/internal/hwsim"
	"ehdl/internal/obs"
	"ehdl/internal/pktgen"
)

// tracedEvents runs one app's seeded traffic through the pipeline
// simulator with an in-memory tracer attached and returns the event
// stream. The differential outcome itself is checked elsewhere; these
// tests replay the stream and assert the cycle-accounting invariants of
// DESIGN.md hold over it.
func tracedEvents(t *testing.T, name string, flows, n int, sim hwsim.Config) []obs.Event {
	t.Helper()
	app := mustApp(t, name)
	cfg := app.Traffic
	if flows > 0 {
		cfg.Flows = flows
	}
	cfg.Seed = 0x1417
	packets := pktgen.NewGenerator(cfg).Batch(n)
	prog, err := app.Program()
	if err != nil {
		t.Fatal(err)
	}
	tr, sink := memTracer()
	sim.Trace = tr
	if _, _, err := compileAndRun(prog, interpreter, app.SetupHost, packets, Config{sim: sim}); err != nil {
		t.Fatal(err)
	}
	return sink.Events()
}

// TestInvariantOneStagePerCycle replays the stage_enter/stage_exit
// stream of a hazard-dense run and proves the structural pipeline
// invariant: a frame occupies exactly one stage at a time, no stage
// holds two frames, and a frame advances at most one stage per cycle —
// across shifts, flush recalls and elastic-buffer re-entries alike.
func TestInvariantOneStagePerCycle(t *testing.T) {
	evs := tracedEvents(t, "firewall", 2, 40, hwsim.Config{})

	stageOf := map[int64]int{}  // seq -> occupied stage
	occupant := map[int]int64{} // stage -> seq
	lastEnter := map[int64]uint64{}
	entered := false
	for _, ev := range evs {
		switch ev.Kind {
		case obs.KindStageEnter:
			entered = true
			if cur, ok := stageOf[ev.Seq]; ok {
				t.Fatalf("cycle %d: frame %d enters stage %d while still in stage %d", ev.Cycle, ev.Seq, ev.Stage, cur)
			}
			if occ, ok := occupant[ev.Stage]; ok {
				t.Fatalf("cycle %d: frame %d enters stage %d already occupied by frame %d", ev.Cycle, ev.Seq, ev.Stage, occ)
			}
			if last, ok := lastEnter[ev.Seq]; ok && ev.Cycle <= last {
				t.Fatalf("cycle %d: frame %d enters two stages in one cycle", ev.Cycle, ev.Seq)
			}
			stageOf[ev.Seq] = ev.Stage
			occupant[ev.Stage] = ev.Seq
			lastEnter[ev.Seq] = ev.Cycle
		case obs.KindStageExit:
			cur, ok := stageOf[ev.Seq]
			if !ok {
				t.Fatalf("cycle %d: frame %d exits stage %d without being in flight", ev.Cycle, ev.Seq, ev.Stage)
			}
			if cur != ev.Stage {
				t.Fatalf("cycle %d: frame %d exits stage %d but occupies stage %d", ev.Cycle, ev.Seq, ev.Stage, cur)
			}
			delete(stageOf, ev.Seq)
			delete(occupant, ev.Stage)
		}
	}
	if !entered {
		t.Fatal("no stage_enter events recorded")
	}
	if len(stageOf) != 0 {
		t.Fatalf("%d frames never exited after the drain: %v", len(stageOf), stageOf)
	}
}

// TestInvariantFlushPenalty checks the flush cost model of DESIGN.md:
// the Flush Evaluation Block charges the reload dead time (the paper's
// K = 4 overhead) plus one re-entry cycle per recalled victim, so an
// isolated flush episode releases after exactly reload + victims + 1
// cycles.
func TestInvariantFlushPenalty(t *testing.T) {
	const reload = 4
	evs := tracedEvents(t, "firewall", 1, 2, hwsim.Config{})

	type episode struct {
		begins  int
		victims uint64
		penalty uint64
	}
	var eps []episode
	open := false
	var cur episode
	for _, ev := range evs {
		switch ev.Kind {
		case obs.KindFlushBegin:
			if !open {
				open = true
				cur = episode{}
			}
			cur.begins++
			cur.victims += ev.Aux
		case obs.KindFlushEnd:
			if !open {
				t.Fatalf("cycle %d: flush_end without an open episode", ev.Cycle)
			}
			cur.penalty = ev.Aux
			eps = append(eps, cur)
			open = false
		}
	}
	if open {
		t.Fatal("flush episode never closed")
	}
	if len(eps) == 0 {
		t.Fatalf("reload=%d: two same-flow packets back to back produced no flush", reload)
	}
	isolated := 0
	for _, ep := range eps {
		if ep.victims == 0 {
			t.Fatalf("reload=%d: flush episode recalled no victims", reload)
		}
		if ep.begins == 1 {
			isolated++
			want := uint64(reload) + ep.victims + 1
			if ep.penalty != want {
				t.Fatalf("reload=%d: isolated flush with %d victims cost %d cycles, want reload+victims+1 = %d",
					reload, ep.victims, ep.penalty, want)
			}
		}
	}
	if isolated == 0 {
		t.Fatalf("reload=%d: no isolated flush episode to check exactly", reload)
	}
}

// TestInvariantBypassedStagesQuiet proves that a frame whose verdict
// has latched (stage_enter with the done flag) flows through the
// remaining stages with every block bypassed: no predicate evaluates
// and no map port fires for it until a flush replay rewinds it to a
// live state.
func TestInvariantBypassedStagesQuiet(t *testing.T) {
	evs := tracedEvents(t, "firewall", 2, 40, hwsim.Config{})

	done := map[int64]bool{}
	sawDone := false
	for _, ev := range evs {
		switch ev.Kind {
		case obs.KindStageEnter:
			if ev.Aux == 1 {
				done[ev.Seq] = true
				sawDone = true
			} else {
				done[ev.Seq] = false // flush replay re-enters live
			}
		case obs.KindPredicate, obs.KindMapAccess:
			if ev.Seq != obs.NoSeq && done[ev.Seq] {
				t.Fatalf("cycle %d: %s for frame %d at stage %d after its verdict latched",
					ev.Cycle, ev.Kind, ev.Seq, ev.Stage)
			}
		case obs.KindVerdict:
			delete(done, ev.Seq)
		}
	}
	if !sawDone {
		t.Fatal("no done-flagged stage_enter observed; the bypass path never exercised")
	}
}

// TestInvariantVerdictLatency ties the verdict events to the injection
// events: every injected frame retires exactly once, and the latency
// the verdict carries equals the cycle distance from its injection.
func TestInvariantVerdictLatency(t *testing.T) {
	evs := tracedEvents(t, "firewall", 2, 40, hwsim.Config{})

	injectedAt := map[int64]uint64{}
	verdicts := map[int64]int{}
	for _, ev := range evs {
		switch ev.Kind {
		case obs.KindInject:
			injectedAt[ev.Seq] = ev.Cycle
		case obs.KindVerdict:
			verdicts[ev.Seq]++
			in, ok := injectedAt[ev.Seq]
			if !ok {
				t.Fatalf("cycle %d: verdict for frame %d with no inject event", ev.Cycle, ev.Seq)
			}
			if got, want := ev.Aux2, ev.Cycle-in; got != want {
				t.Fatalf("frame %d: verdict latency %d, but injected at %d and retired at %d (want %d)",
					ev.Seq, got, in, ev.Cycle, want)
			}
		}
	}
	if len(injectedAt) == 0 {
		t.Fatal("no inject events recorded")
	}
	for seq := range injectedAt {
		if verdicts[seq] != 1 {
			t.Fatalf("frame %d retired %d times, want exactly once", seq, verdicts[seq])
		}
	}
}
