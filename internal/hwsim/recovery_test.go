package hwsim

import (
	"errors"
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/core"
	"ehdl/internal/ebpf"
	"ehdl/internal/maps"
	"ehdl/internal/pktgen"
	"ehdl/internal/protect"
)

// corruptDoubleBit plants a two-bit upset inside one 64-bit word of the
// first populated map entry — beyond SECDED's correction capability, so
// detection must quarantine the entry and trigger a recovery. Returns
// false when the app has no populated entry to damage.
func corruptDoubleBit(set *maps.Set) bool {
	for id := 0; id < set.Len(); id++ {
		m, _ := set.ByID(id)
		if m.Len() == 0 {
			continue
		}
		done := false
		m.Iterate(func(_, v []byte) bool {
			if len(v) == 0 {
				return true
			}
			// Both flips land in word 0 of the value.
			v[0] ^= 0x01
			if len(v) > 5 {
				v[5] ^= 0x10
			} else {
				v[0] ^= 0x02
			}
			done = true
			return false
		})
		if done {
			return true
		}
	}
	return false
}

func newAppSim(t *testing.T, app *apps.App, cfg Config) *Sim {
	t.Helper()
	prog, err := app.Program()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.Compile(prog, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Setup(sim.Maps()); err != nil {
		t.Fatal(err)
	}
	sim.SetClock(func() uint64 { return 0 })
	return sim
}

// TestRecoveryDrainAndRestartEveryApp forces an uncorrectable map word
// mid-burst into every evaluation app and verifies the full recovery
// contract: the upset is detected, every in-flight frame drains as
// XDP_ABORTED with exact accounting, map memory right after the
// recovery equals the last known-good checkpoint, and the run finishes
// with every injected packet retired.
func TestRecoveryDrainAndRestartEveryApp(t *testing.T) {
	for _, app := range append(apps.All(), apps.Toy(), apps.LeakyBucket()) {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			cfg := Config{
				Protection:            protect.LevelECC,
				ScrubCyclesPerWord:    1,
				RecoveryBackoffCycles: 16,
				WatchdogCycles:        200000,
				InputQueuePackets:     64,
			}
			sim := newAppSim(t, app, cfg)
			gen := pktgen.NewGenerator(app.Traffic)

			// Open the burst and let the first packets enter the pipeline
			// (the first Step also takes the initial checkpoint).
			injected := 0
			for i := 0; i < 8; i++ {
				if sim.InputFree() {
					sim.Inject(gen.Next())
					injected++
				}
				if err := sim.Step(); err != nil {
					t.Fatal(err)
				}
			}
			if sim.checkpoint == nil {
				t.Fatal("no initial checkpoint after the first cycle")
			}
			if !corruptDoubleBit(sim.Maps()) {
				t.Skipf("%s populates no map entry to corrupt", app.Name)
			}

			// Keep offering load until the upset is detected (scrub cursor
			// or access path) and the pipeline recovers.
			deadline := sim.Cycle() + 100000
			for sim.Stats().Recoveries == 0 {
				if sim.Cycle() > deadline {
					t.Fatal("uncorrectable upset never detected")
				}
				if sim.InputFree() && injected < 2000 {
					sim.Inject(gen.Next())
					injected++
				}
				if err := sim.Step(); err != nil {
					t.Fatal(err)
				}
			}

			// Checkpoint-restore equivalence: at the end of the recovery
			// cycle the map state is exactly the known-good snapshot.
			if !sim.Maps().Snapshot().Equal(sim.checkpoint) {
				t.Error("map state after recovery differs from the checkpoint")
			}
			st := sim.Stats()
			if st.UncorrectableWords == 0 {
				t.Error("recovery fired without an uncorrectable word")
			}

			// Drain accounting at the recovery instant: nothing remains in
			// the stages or the reload queue, and every drained frame
			// retired as XDP_ABORTED.
			for i, j := range sim.stages.slots {
				if j != nil {
					t.Errorf("stage %d still occupied right after recovery", i)
				}
			}
			if sim.reload.len() != 0 {
				t.Errorf("%d flush victims survived the drain", sim.reload.len())
			}
			if st.RecoveryAborted == 0 {
				t.Error("recovery drained no in-flight frames (burst was in flight)")
			}
			if got := st.Actions.Count(ebpf.XDPAborted); got < st.RecoveryAborted {
				t.Errorf("Actions[XDP_ABORTED] = %d < RecoveryAborted = %d", got, st.RecoveryAborted)
			}
			if st.RecoveryBackoffCycles == 0 {
				t.Error("no backoff charged")
			}

			// The run then completes: ingress-queued packets survived the
			// reset, and injected == retired exactly.
			if err := sim.RunToCompletion(1 << 22); err != nil {
				t.Fatal(err)
			}
			end := sim.Stats()
			if end.Injected != end.Completed {
				t.Errorf("injected %d != completed %d (drain accounting broken)",
					end.Injected, end.Completed)
			}
			if end.Injected != uint64(injected)-(end.QueueDrops) {
				t.Errorf("injected %d, offered %d, queue-dropped %d", end.Injected, injected, end.QueueDrops)
			}
		})
	}
}

// TestRecoveryExhaustionIsTyped proves the bounded-retry contract: with
// MaxRecoveries=1 a second uncorrectable upset before any clean scrub
// pass ends the run with a recoveryError wrapping ErrRecoveryExhausted.
func TestRecoveryExhaustionIsTyped(t *testing.T) {
	pl := compile(t, "toy", toySource, core.Options{})
	sim, err := New(pl, Config{
		Protection:            protect.LevelECC,
		ScrubCyclesPerWord:    1 << 20, // scrubber effectively off: no clean pass resets the budget
		MaxRecoveries:         1,
		RecoveryBackoffCycles: 8,
	})
	if err != nil {
		t.Fatal(err)
	}

	step := func() error {
		if sim.InputFree() {
			sim.Inject(ethPacket(ebpf.EthPIP, 64))
		}
		return sim.Step()
	}
	// The scrubber is parked, so detection must come from the access
	// path: damage the stats slot the IPv4 traffic actually increments
	// (key 1), with both flips inside one word.
	corruptHot := func() {
		m, _ := sim.Maps().ByID(0)
		i := 0
		m.Iterate(func(_, v []byte) bool {
			if i == 1 {
				v[0] ^= 0x05
				return false
			}
			i++
			return true
		})
	}
	// First cycle takes the checkpoint; then plant the first double flip.
	if err := step(); err != nil {
		t.Fatal(err)
	}
	corruptHot()
	for sim.Stats().Recoveries == 0 {
		if err := step(); err != nil {
			t.Fatalf("first recovery must succeed: %v", err)
		}
		if sim.Cycle() > 100000 {
			t.Fatal("first upset never detected")
		}
	}

	// Second upset: the budget (1) is spent, so the next trigger fails.
	corruptHot()
	var final error
	for final == nil {
		final = step()
		if sim.Cycle() > 200000 {
			t.Fatal("second upset never detected")
		}
	}
	if !errors.Is(final, ErrRecoveryExhausted) {
		t.Fatalf("error %v, want ErrRecoveryExhausted", final)
	}
	var re *recoveryError
	if !errors.As(final, &re) {
		t.Fatalf("error %T does not unwrap to *RecoveryError", final)
	}
	if re.Attempts != 1 {
		t.Errorf("RecoveryError.Attempts = %d, want 1", re.Attempts)
	}
}

// TestRecoveryFromLivelock wedges the same never-draining stall window
// as the watchdog test; with protection enabled the trip must feed the
// drain-and-restart sequence instead of ending the simulation.
func TestRecoveryFromLivelock(t *testing.T) {
	pl := compile(t, "flow", flowSource, core.Options{})
	sim, err := New(pl, Config{
		Policy:                PolicyStall,
		WatchdogCycles:        500,
		Protection:            protect.LevelECC,
		RecoveryBackoffCycles: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sim.Inject(ipv4Packet(1, 64)) {
		t.Fatal("inject failed")
	}
	if err := sim.Step(); err != nil {
		t.Fatal(err)
	}
	sim.wedgeStall(1, pl.NumStages()-1, 1<<40)

	if err := sim.RunToCompletion(100000); err != nil {
		t.Fatalf("livelock with recovery enabled must heal, got %v", err)
	}
	st := sim.Stats()
	if st.WatchdogTrips != 1 {
		t.Errorf("WatchdogTrips = %d, want 1", st.WatchdogTrips)
	}
	if st.Recoveries != 1 {
		t.Errorf("Recoveries = %d, want 1", st.Recoveries)
	}
	if st.RecoveryAborted != 1 {
		t.Errorf("RecoveryAborted = %d, want 1 (the wedged packet)", st.RecoveryAborted)
	}
	if st.Injected != st.Completed {
		t.Errorf("injected %d != completed %d", st.Injected, st.Completed)
	}
	if st.Actions.Count(ebpf.XDPAborted) != 1 {
		t.Errorf("Actions[XDP_ABORTED] = %d, want 1", st.Actions.Count(ebpf.XDPAborted))
	}
}

// TestRecoveryBackoffSchedule pins the exponential hold schedule.
func TestRecoveryBackoffSchedule(t *testing.T) {
	want := []uint64{256, 512, 1024, 2048, 4096}
	for i, w := range want {
		if got := recoveryBackoff(i+1, 0); got != w {
			t.Errorf("recoveryBackoff(%d, default) = %d, want %d", i+1, got, w)
		}
	}
	if got := recoveryBackoff(3, 16); got != 64 {
		t.Errorf("recoveryBackoff(3, 16) = %d, want 64", got)
	}
	// The schedule saturates instead of overflowing.
	if got := recoveryBackoff(60, 256); got != 1<<20 {
		t.Errorf("recoveryBackoff(60, 256) = %d, want the %d cap", got, 1<<20)
	}
	if got := recoveryBackoff(0, 100); got != 100 {
		t.Errorf("recoveryBackoff(0, 100) = %d, want 100 (clamped to attempt 1)", got)
	}
}

// TestProtectionCorrectsSingleBitTransparently checks the happy path:
// one single-bit upset in a looked-up entry is corrected in place, no
// recovery fires, and the corrected value flows to the program.
func TestProtectionCorrectsSingleBitTransparently(t *testing.T) {
	pl := compile(t, "toy", toySource, core.Options{})
	sim, err := New(pl, Config{Protection: protect.LevelECC, ScrubCyclesPerWord: 1})
	if err != nil {
		t.Fatal(err)
	}
	sim.Inject(ethPacket(ebpf.EthPIP, 64))
	if err := sim.Step(); err != nil {
		t.Fatal(err)
	}
	// Single-bit flip in entry 0 of the stats array.
	m, _ := sim.Maps().ByID(0)
	m.Iterate(func(_, v []byte) bool {
		v[3] ^= 0x40
		return false
	})
	if err := sim.RunToCompletion(1 << 20); err != nil {
		t.Fatal(err)
	}
	st := sim.Stats()
	if st.CorrectedWords == 0 {
		t.Error("single-bit upset never corrected")
	}
	if st.UncorrectableWords != 0 || st.Recoveries != 0 {
		t.Errorf("single-bit upset escalated: %d uncorrectable, %d recoveries",
			st.UncorrectableWords, st.Recoveries)
	}
	if st.ScrubPasses == 0 {
		t.Error("scrubber never completed a pass")
	}
	if st.CheckpointsTaken < 2 {
		t.Errorf("CheckpointsTaken = %d, want initial + post-clean-pass", st.CheckpointsTaken)
	}
	if st.Completed != st.Injected {
		t.Errorf("completed %d of %d", st.Completed, st.Injected)
	}
}
