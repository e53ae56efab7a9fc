package hwsim

import (
	"math/rand"
	"testing"

	"ehdl/internal/core"
	"ehdl/internal/protect"
)

// TestRecoveryBackoffJitterBounds pins the jitter window: the jittered
// hold is never below the deterministic schedule and always strictly
// less than one base above it, for every attempt including the clamped
// ones at either end.
func TestRecoveryBackoffJitterBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, base := range []int{0, 1, 64, 256, 4096} {
		for attempt := -1; attempt <= 16; attempt++ {
			det := recoveryBackoff(attempt, base)
			effBase := base
			if effBase <= 0 {
				effBase = 256
			}
			for i := 0; i < 32; i++ {
				j := recoveryBackoffJittered(attempt, base, rng)
				if j < det || j >= det+uint64(effBase) {
					t.Fatalf("attempt %d base %d: jittered %d outside [%d, %d)",
						attempt, base, j, det, det+uint64(effBase))
				}
			}
		}
	}
}

// TestRecoveryBackoffJitterNilRng: without an rng the function is
// recoveryBackoff exactly — legacy callers see no behavior change.
func TestRecoveryBackoffJitterNilRng(t *testing.T) {
	for attempt := -1; attempt <= 16; attempt++ {
		for _, base := range []int{0, 1, 256, 1024} {
			if got, want := recoveryBackoffJittered(attempt, base, nil), recoveryBackoff(attempt, base); got != want {
				t.Fatalf("attempt %d base %d: nil rng gave %d, want deterministic %d", attempt, base, got, want)
			}
		}
	}
}

// TestRecoveryBackoffJitterDeterminism: two rngs built from the same
// seed draw the same jitter sequence, so a fleet chaos run replays
// byte-identically; different seeds diverge somewhere in the sequence.
func TestRecoveryBackoffJitterDeterminism(t *testing.T) {
	a := rand.New(rand.NewSource(7))
	b := rand.New(rand.NewSource(7))
	c := rand.New(rand.NewSource(8))
	same, diff := true, false
	for i := 0; i < 64; i++ {
		attempt := 1 + i%6
		ja := recoveryBackoffJittered(attempt, 256, a)
		jb := recoveryBackoffJittered(attempt, 256, b)
		jc := recoveryBackoffJittered(attempt, 256, c)
		if ja != jb {
			same = false
		}
		if ja != jc {
			diff = true
		}
	}
	if !same {
		t.Error("same-seed rngs drew different jitter sequences")
	}
	if !diff {
		t.Error("distinct seeds never diverged in 64 draws")
	}
}

// TestRecoveryJitterSeededOnFirstRecovery: a Sim builds its jitter
// source only when it first recovers, and the hold it charges is the
// first draw of a source seeded with RecoveryJitterSeed — the stream an
// eagerly seeded source would give.
func TestRecoveryJitterSeededOnFirstRecovery(t *testing.T) {
	pl := compile(t, "flow", flowSource, core.Options{})
	sim, err := New(pl, Config{
		Policy:                PolicyStall,
		WatchdogCycles:        500,
		Protection:            protect.LevelECC,
		RecoveryBackoffCycles: 8,
		RecoveryJitterSeed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sim.jitterRng != nil {
		t.Fatal("jitter source built before any recovery")
	}
	if !sim.Inject(ipv4Packet(1, 64)) {
		t.Fatal("inject failed")
	}
	if err := sim.Step(); err != nil {
		t.Fatal(err)
	}
	sim.wedgeStall(1, pl.NumStages()-1, 1<<40)
	if err := sim.RunToCompletion(100000); err != nil {
		t.Fatal(err)
	}
	if got := sim.Stats().Recoveries; got != 1 {
		t.Fatalf("Recoveries = %d, want 1", got)
	}
	want := recoveryBackoffJittered(1, 8, rand.New(rand.NewSource(7)))
	if got := sim.Stats().RecoveryBackoffCycles; got != want {
		t.Errorf("RecoveryBackoffCycles = %d, want %d (first draw of seed 7)", got, want)
	}
}
