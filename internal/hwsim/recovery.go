package hwsim

import (
	"errors"
	"fmt"
	"math/rand"

	"ehdl/internal/ebpf"
	"ehdl/internal/maps"
	"ehdl/internal/protect"
)

// This file is the self-healing half of the simulator: ECC/parity
// protection of the map BRAMs, the background scrubber, and the
// checkpointed drain-and-restart recovery sequence that fires on an
// uncorrectable word or a livelock. The protection codecs themselves
// live in internal/protect and the per-map wrappers in internal/maps;
// here they are scheduled against the pipeline clock and tied to the
// retirement accounting, so a protected run stays bit-reproducible.

// ErrRecoveryExhausted is the sentinel wrapped by every recoveryError;
// callers test for it with errors.Is.
var ErrRecoveryExhausted = errors.New("hwsim: recovery budget exhausted")

// errUncorrectableAccess marks a data-plane read that hit a word beyond
// the codec's correction capability: the packet retires as XDP_ABORTED
// and the cycle ends in a recovery.
var errUncorrectableAccess = errors.New("uncorrectable protected map word")

// recoveryError reports that the pipeline kept corrupting faster than
// drain-and-restart could heal it: MaxRecoveries resets were spent and
// another trigger arrived. On real hardware this is the point where the
// shell raises a fatal interrupt and the driver reloads the bitstream.
type recoveryError struct {
	// Cycle is the cycle of the final, over-budget trigger.
	Cycle uint64
	// Attempts is the number of recoveries performed before giving up.
	Attempts int
	// Reason describes the final trigger (uncorrectable word, livelock).
	Reason string
}

func (e *recoveryError) Error() string {
	return fmt.Sprintf("hwsim: cycle %d: %d recoveries exhausted, still failing: %s",
		e.Cycle, e.Attempts, e.Reason)
}

// Unwrap makes errors.Is(err, ErrRecoveryExhausted) hold.
func (e *recoveryError) Unwrap() error { return ErrRecoveryExhausted }

// recoveryBackoff returns the input-hold time before the attempt-th
// restart (1-based): base << (attempt-1), capped so the schedule cannot
// overflow or out-wait any realistic watchdog budget.
func recoveryBackoff(attempt, base int) uint64 {
	if attempt < 1 {
		attempt = 1
	}
	if base <= 0 {
		base = 256
	}
	shift := attempt - 1
	if shift > 12 {
		shift = 12
	}
	const maxBackoff = 1 << 20
	b := uint64(base) << shift
	if b > maxBackoff {
		b = maxBackoff
	}
	return b
}

// recoveryBackoffJittered is recoveryBackoff plus a seeded jitter in
// [0, base): replicas or devices faulted on the same cycle draw
// different holds, so a fleet never re-enters service in lockstep and
// re-collides on the same contended resource. A nil rng returns the
// deterministic schedule unchanged, and the attempt clamping matches
// recoveryBackoff exactly; the caller charges the returned (jittered)
// value to its backoff accounting, so the books stay exact.
func recoveryBackoffJittered(attempt, base int, rng *rand.Rand) uint64 {
	b := recoveryBackoff(attempt, base)
	if rng == nil {
		return b
	}
	if base <= 0 {
		base = 256
	}
	return b + uint64(rng.Intn(base))
}

// initProtection wraps the environment's maps at the configured level
// and builds the scrubber. Called from NewWithEnv; a no-op at
// LevelNone.
func (s *Sim) initProtection() {
	if s.cfg.Protection == protect.LevelNone {
		return
	}
	// ProtectSet returns the wrappers in declaration (mapID) order, so
	// s.protected[mapID] resolves the wrapper directly.
	s.protected = maps.ProtectSet(s.env.Maps, s.cfg.Protection)
	if len(s.protected) > 0 {
		stores := make([]protect.Scrubbable, len(s.protected))
		for i, p := range s.protected {
			stores[i] = p
		}
		s.scrubber = protect.NewScrubber(s.cfg.scrubCyclesPerWord(), stores...)
	}
}

// recoveryEnabled reports whether the drain-and-restart machinery is
// armed. It rides with the protection level: an unprotected pipeline
// has no checkpoint controller to restart from.
func (s *Sim) recoveryEnabled() bool { return s.cfg.Protection != protect.LevelNone }

// takeCheckpoint records the current map contents as the restore point.
func (s *Sim) takeCheckpoint() {
	s.checkpoint = s.env.Maps.Snapshot()
	s.stats.CheckpointsTaken++
	if s.probes != nil {
		entries := 0
		for i := 0; i < s.env.Maps.Len(); i++ {
			if m, ok := s.env.Maps.ByID(i); ok {
				entries += m.Len()
			}
		}
		s.probes.onCheckpoint(s.cycle, entries)
	}
}

// tickScrubber advances the background scrubber one clock cycle. A
// completed pass that saw no uncorrectable word — and left no entry
// quarantined — proves the map state healthy: the retry budget resets
// and a fresh checkpoint is taken.
func (s *Sim) tickScrubber() {
	if s.scrubber == nil {
		return
	}
	passDone, passClean := s.scrubber.Tick()
	if passDone {
		if s.probes != nil {
			s.probes.onScrub(s.cycle, s.scrubber.Stats().Words, passClean)
		}
		if passClean && s.quarantinedEntries() == 0 {
			s.recoveryAttempts = 0
			s.takeCheckpoint()
		}
	}
}

func (s *Sim) quarantinedEntries() int {
	n := 0
	for _, p := range s.protected {
		n += p.Quarantined()
	}
	return n
}

// syncProtectionStats folds the wrapper and scrubber counters into the
// simulation stats (they accumulate out-of-band as the lookup path and
// the scrubber touch words).
func (s *Sim) syncProtectionStats() {
	if len(s.protected) == 0 {
		return
	}
	var c protect.Counters
	for _, p := range s.protected {
		c = c.Add(p.Counters())
	}
	s.stats.WordsChecked = c.Checked
	s.stats.CorrectedWords = c.Corrected
	s.stats.UncorrectableWords = c.Uncorrectable
	if s.scrubber != nil {
		sc := s.scrubber.Stats()
		s.stats.ScrubPasses = sc.Passes
		s.stats.ScrubWords = sc.Words
	}
}

// maybeRecover runs at the end of every cycle: when a new uncorrectable
// word surfaced since the last check, the pipeline drains and restarts.
func (s *Sim) maybeRecover() error {
	if !s.recoveryEnabled() {
		return nil
	}
	s.syncProtectionStats()
	if s.stats.UncorrectableWords > s.handledUncorrectable {
		s.handledUncorrectable = s.stats.UncorrectableWords
		return s.recoverNow("uncorrectable map word")
	}
	return nil
}

// recoverNow is the drain-and-restart sequence (the shell's soft reset):
//
//  1. every in-flight frame — pipeline stages and flush victims alike —
//     retires as XDP_ABORTED through the normal completion path, so the
//     external accounting stays exact (injected == retired + aborted);
//  2. the hazard machinery (stall point, reload queue, WAR shadows) and
//     the input pacing reset to power-on state;
//  3. map memory is restored from the last known-good checkpoint, which
//     re-encodes check bits and lifts quarantines;
//  4. the input holds for an exponentially growing backoff before
//     packets flow again.
//
// Ingress-queued packets never entered the pipeline and survive the
// reset. When the bounded retry budget is exhausted, a recoveryError
// (wrapping ErrRecoveryExhausted) ends the simulation instead.
func (s *Sim) recoverNow(reason string) error {
	s.recoveryAttempts++
	s.stats.Recoveries++

	// Drain, oldest first, through the regular retirement path.
	for t := s.stages.oldest(); t >= 0; t = s.stages.prevOccupied(t) {
		j := s.stages.at(t)
		s.stages.put(t, nil)
		if s.probes != nil {
			s.probes.onStageExit(s.cycle, j, t)
		}
		s.uncountAhead(j, t)
		s.abortInFlight(j)
	}
	for s.reload.len() > 0 {
		s.abortInFlight(s.reload.popFront())
	}

	s.stallPoint, s.stallDrainTo, s.reloadDelay = -1, -1, 0
	s.injectGap = 0
	s.shadows = s.shadows[:0]

	if s.checkpoint != nil {
		if err := s.env.Maps.Restore(s.checkpoint); err != nil {
			return fmt.Errorf("hwsim: recovery restore: %w", err)
		}
	}
	s.syncProtectionStats()

	if max := s.cfg.maxRecoveries(); max > 0 && s.recoveryAttempts > max {
		if s.probes != nil {
			s.probes.onRecovery(s.cycle, s.recoveryAttempts, 0)
		}
		return &recoveryError{Cycle: s.cycle, Attempts: max, Reason: reason}
	}

	if s.jitterRng == nil && s.cfg.RecoveryJitterSeed != 0 {
		s.jitterRng = rand.New(rand.NewSource(s.cfg.RecoveryJitterSeed))
	}
	backoff := recoveryBackoffJittered(s.recoveryAttempts, s.cfg.RecoveryBackoffCycles, s.jitterRng)
	s.recoveryHold = s.cycle + backoff
	s.stats.RecoveryBackoffCycles += backoff
	s.lastRetire = s.cycle
	if s.probes != nil {
		s.probes.onRecovery(s.cycle, s.recoveryAttempts, backoff)
	}
	return nil
}

// abortInFlight retires one drained packet as XDP_ABORTED.
func (s *Sim) abortInFlight(j *job) {
	j.done = true
	j.action = ebpf.XDPAborted
	s.stats.RecoveryAborted++
	s.complete(j)
}

// checkMapRead models the BRAM read-port syndrome decode that precedes
// every pointer-relative access to the entry a packet looked up: a
// single-bit upset is corrected in place before the load sees it; an
// uncorrectable word aborts the packet (and, via the counters, triggers
// a recovery at the end of the cycle).
func (s *Sim) checkMapRead(j *job, mapID int) error {
	if mapID < 0 || mapID >= len(s.protected) {
		return nil
	}
	l := &j.lookups[mapID]
	if !l.valid {
		return nil
	}
	if !s.protected[mapID].CheckKey(l.key) {
		return fmt.Errorf("map %q entry %x: %w",
			s.pl.Transformed.Maps[mapID].Name, l.key, errUncorrectableAccess)
	}
	return nil
}

// reencodeMapWrite recomputes the check bits after a store or atomic
// that went through the lookup pointer rather than the update helper —
// the hardware write port encodes on every write, whatever its source.
func (s *Sim) reencodeMapWrite(j *job, mapID int) {
	if mapID < 0 || mapID >= len(s.protected) {
		return
	}
	if l := &j.lookups[mapID]; l.valid {
		s.protected[mapID].Reencode(l.key)
	}
}
