package nic

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/asm"
	"ehdl/internal/conformance"
	"ehdl/internal/core"
	"ehdl/internal/faults"
	"ehdl/internal/hwsim"
	"ehdl/internal/liveupdate"
	"ehdl/internal/maps"
	"ehdl/internal/pktgen"
)

// TestUpdateProtocolMatrix: both drive loops and both engines run one
// live-update protocol. Over {1, 4} queues × {interpreter, compiled} a
// clean same-program update commits with zero loss; the liveupdate
// experiment's SEU-corrupted new pipeline (faults force the
// interpreter, per Eligible) rolls back at the canary at both queue
// counts; refused setup, an incompatible schema and a compile error
// roll back at their typed stage. Whatever the outcome, the compiled
// and the interpreted run agree on the verdict ledger, Received,
// HeldPackets and the merged map state.
func TestUpdateProtocolMatrix(t *testing.T) {
	const count, after, pps = 2048, 1024, 100e6
	app := apps.Toy()
	prog, err := app.Program()
	if err != nil {
		t.Fatal(err)
	}
	variant, err := asm.Assemble("toy-v2",
		strings.Replace(app.Source, "map stats array key=4 value=8", "map stats array key=4 value=16", 1))
	if err != nil {
		t.Fatal(err)
	}
	loop, err := asm.Assemble("loop", `
r0 = 0
again:
r0 += 1
r2 = *(u32 *)(r1 + 0)
if r0 < r2 goto again
r0 = 2
exit
`)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		ucfg  func() liveupdate.Config
		stage liveupdate.Stage // StageDone: the update commits
		cause string           // in the failure text
	}{
		{"clean", func() liveupdate.Config {
			return liveupdate.Config{Prog: prog, Setup: app.SetupHost}
		}, liveupdate.StageDone, ""},
		{"seu", func() liveupdate.Config {
			return liveupdate.Config{Prog: prog, Setup: app.SetupHost,
				Faults: faults.New(faults.Single(faults.SEUMapEntry, 0.5, 13))}
		}, liveupdate.StageCanary, liveupdate.ErrCanaryDiverged.Error()},
		{"refused-setup", func() liveupdate.Config {
			return refusedSetup(t, app)
		}, liveupdate.StageShadow, "setup refused"},
		{"schema", func() liveupdate.Config {
			return liveupdate.Config{Prog: variant}
		}, liveupdate.StageGate, "value_size"},
		{"compile", func() liveupdate.Config {
			return liveupdate.Config{Prog: loop}
		}, liveupdate.StageShadow, "back-edge"},
	}
	for _, q := range []int{1, 4} {
		for _, tc := range cases {
			var reps [2]Report
			var state [2]*maps.Set
			for i, fast := range []bool{false, true} {
				sh := newShell(t, app, core.Options{}, ShellConfig{Queues: q, FastPath: fast, Sim: hwsim.Config{InputQueuePackets: 64}})
				if err := sh.ScheduleUpdate(after, tc.ucfg()); err != nil {
					t.Fatal(err)
				}
				rep, err := sh.RunLoad(pktgen.NewGenerator(app.Traffic).Next, count, pps)
				if err != nil {
					t.Fatalf("q%d %s fast=%v: %v", q, tc.name, fast, err)
				}
				if rep.UpdatesAttempted != 1 || rep.UpdateStage != stageOf(tc.stage) {
					t.Errorf("q%d %s fast=%v: %d attempted, stage %q (%q), want %v",
						q, tc.name, fast, rep.UpdatesAttempted, rep.UpdateStage, rep.UpdateFailure, tc.stage)
				}
				prefix := ""
				if tc.stage != liveupdate.StageDone {
					prefix = "liveupdate: " + tc.stage.String() + " stage failed: "
				}
				if !strings.HasPrefix(rep.UpdateFailure, prefix) || !strings.Contains(rep.UpdateFailure, tc.cause) {
					t.Errorf("q%d %s fast=%v: failure %q, want %q...%q", q, tc.name, fast, rep.UpdateFailure, prefix, tc.cause)
				}
				if rep.Lost != 0 || rep.Received != rep.Sent || rep.Sent != count {
					t.Errorf("q%d %s fast=%v: received %d of %d sent, lost %d", q, tc.name, fast, rep.Received, rep.Sent, rep.Lost)
				}
				if sh.FastPath() != fast {
					t.Errorf("q%d %s fast=%v: FastPath()=%v after the update", q, tc.name, fast, sh.FastPath())
				}
				reps[i], state[i] = rep, sh.Maps()
			}
			interp, compiled := reps[0], reps[1]
			if !reflect.DeepEqual(interp.Actions, compiled.Actions) || interp.Received != compiled.Received ||
				interp.HeldPackets != compiled.HeldPackets {
				t.Errorf("q%d %s: compiled %v received %d held %d, interpreter %v received %d held %d", q, tc.name,
					compiled.Actions, compiled.Received, compiled.HeldPackets, interp.Actions, interp.Received, interp.HeldPackets)
			}
			if err := conformance.CompareMaps(state[0], state[1]); err != nil {
				t.Errorf("q%d %s: merged map state: %v", q, tc.name, err)
			}
		}
	}
}

func stageOf(s liveupdate.Stage) string {
	if s == liveupdate.StageDone {
		return s.String()
	}
	return liveupdate.StageRolledBack.String()
}

// TestUpdateCutoverMeasuresDrainTail: CutoverTicks is the drain tail
// plus one cycle per migrated entry and HeldPackets the arrivals due
// within it, on both loops — not the session before the barrier. The
// tail is measured without the update: a control shell serves the same
// first `after` arrivals and drains, and its cycles past the last
// arrival's entry cycle are the tail.
func TestUpdateCutoverMeasuresDrainTail(t *testing.T) {
	const count, after, pps = 2048, 1024, 100e6
	app := apps.Toy()
	prog, err := app.Program()
	if err != nil {
		t.Fatal(err)
	}
	cpp := 250e6 / pps
	for _, q := range []int{1, 4} {
		cfg := ShellConfig{Queues: q, Sim: hwsim.Config{InputQueuePackets: 64}}
		ctl, err := newShell(t, app, core.Options{}, cfg).RunLoad(pktgen.NewGenerator(app.Traffic).Next, after, pps)
		if err != nil {
			t.Fatal(err)
		}
		// The last arrival enters at ceil(i·cpp) on the single-queue
		// loop's accumulator and at floor(i·cpp) as the dispatcher
		// stamps it; the barrier is the cycle after.
		last := math.Floor(float64(after-1) * cpp)
		if q == 1 {
			last = math.Ceil(float64(after-1) * cpp)
		}
		tail := ctl.Cycles - uint64(last) - 1

		sh := newShell(t, app, core.Options{}, cfg)
		if err := sh.ScheduleUpdate(after, liveupdate.Config{Prog: prog, Setup: app.SetupHost}); err != nil {
			t.Fatal(err)
		}
		rep, err := sh.RunLoad(pktgen.NewGenerator(app.Traffic).Next, count, pps)
		if err != nil {
			t.Fatal(err)
		}
		if rep.UpdatesCompleted != 1 || rep.MigratedEntries == 0 {
			t.Fatalf("q%d: update %q migrated %d entries", q, rep.UpdateStage, rep.MigratedEntries)
		}
		if rep.CutoverTicks != tail+rep.MigratedEntries {
			t.Errorf("q%d: cutover %d ticks, want the %d-cycle drain tail + %d entries",
				q, rep.CutoverTicks, tail, rep.MigratedEntries)
		}
		if want := uint64(math.Ceil(float64(rep.CutoverTicks) / cpp)); rep.HeldPackets != want {
			t.Errorf("q%d: held %d, want the %d arrivals due within %d ticks", q, rep.HeldPackets, want, rep.CutoverTicks)
		}
	}
}

// TestPinnedMultiQueueUpdate: a pinned multi-queue shell hands its
// replicas the shell clock, and so does the update to the new replica
// set: the rate limiter, which reads bpf_ktime on every packet, swaps
// for itself across four queues at the pinned time and commits.
func TestPinnedMultiQueueUpdate(t *testing.T) {
	app := apps.LeakyBucket()
	prog, err := app.Program()
	if err != nil {
		t.Fatal(err)
	}
	sh := newShell(t, app, core.Options{}, ShellConfig{Queues: 4, Sim: hwsim.Config{InputQueuePackets: 64}})
	sh.PinClock(0)
	if err := sh.ScheduleUpdate(500, liveupdate.Config{Prog: prog, Setup: app.SetupHost}); err != nil {
		t.Fatal(err)
	}
	rep, err := sh.RunLoad(pktgen.NewGenerator(app.Traffic).Next, 1000, 50e6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UpdatesCompleted != 1 || rep.CanariedPackets == 0 || rep.Received != rep.Sent {
		t.Fatalf("update %q (%q): canaried %d, received %d of %d",
			rep.UpdateStage, rep.UpdateFailure, rep.CanariedPackets, rep.Received, rep.Sent)
	}
}

// TestMultiQueueUpdateKeepsClock: a committed multi-queue update
// continues the old engine's time, as the single-queue loop does. The
// rate limiter, warmed with a first run and then swapped for itself,
// must give the same verdicts as without the update on both engines: a
// clock that restarted at the swap would make `now - last` underflow and
// refill every bucket.
func TestMultiQueueUpdateKeepsClock(t *testing.T) {
	app := apps.LeakyBucket()
	for _, fast := range []bool{false, true} {
		var actions [2]hwsim.Verdicts
		for i, update := range []bool{false, true} {
			sh := newShell(t, app, core.Options{}, ShellConfig{Queues: 4, FastPath: fast})
			traffic := app.Traffic
			traffic.Flows = 8
			next := pktgen.NewGenerator(traffic).Next
			if _, err := sh.RunLoad(next, 20000, 20e6); err != nil {
				t.Fatal(err)
			}
			if update {
				if err := sh.ScheduleUpdate(10, sameProgram(t, app)); err != nil {
					t.Fatal(err)
				}
			}
			rep, err := sh.RunLoad(next, 4000, 100e6)
			if err != nil {
				t.Fatal(err)
			}
			if update && rep.UpdatesCompleted != 1 {
				t.Fatalf("fast=%v: update %q (%q) did not commit", fast, rep.UpdateStage, rep.UpdateFailure)
			}
			actions[i] = rep.Actions
		}
		if !reflect.DeepEqual(actions[0], actions[1]) {
			t.Errorf("fast=%v: verdicts %v with the update, %v without", fast, actions[1], actions[0])
		}
	}
}
