package hwsim

import (
	"errors"
	"fmt"
)

// errLivelock is the sentinel wrapped by every livelockError; callers
// test for it with errors.Is.
var errLivelock = errors.New("hwsim: pipeline livelock")

// livelockError is the watchdog's cycle-stamped diagnostic: work is in
// flight but no packet has retired for Config.WatchdogCycles cycles. On
// real hardware this is the condition that forces a shell-level
// pipeline reset; the simulator surfaces it as a typed error instead of
// hanging the caller.
type livelockError struct {
	// Cycle is the cycle the watchdog tripped on.
	Cycle uint64
	// LastRetire is the cycle of the last packet retirement (0 if no
	// packet ever retired).
	LastRetire uint64
	// StallPoint is the stage the hazard machinery is holding at, or -1
	// when no stall/reload window is open.
	StallPoint int
	// Policy is the hazard policy the pipeline was configured with.
	Policy HazardPolicy
	// InFlight is the number of packets occupying pipeline stages.
	InFlight int
	// Reloading is the number of flush victims awaiting re-entry.
	Reloading int
}

func (e *livelockError) Error() string {
	policy := "flush"
	if e.Policy == PolicyStall {
		policy = "stall"
	}
	return fmt.Sprintf(
		"hwsim: pipeline livelock: no retirement since cycle %d (now %d, policy %s, stall point %d, %d in flight, %d reloading)",
		e.LastRetire, e.Cycle, policy, e.StallPoint, e.InFlight, e.Reloading)
}

// Unwrap makes errors.Is(err, errLivelock) hold for every livelockError.
func (e *livelockError) Unwrap() error { return errLivelock }

// checkWatchdog runs at the end of every cycle. It trips when packets
// are in flight (or waiting to re-enter) but none has retired for more
// than WatchdogCycles cycles — the signature of a stall-policy or
// flush-reload livelock.
func (s *Sim) checkWatchdog() error {
	if s.cfg.WatchdogCycles <= 0 {
		return nil
	}
	if !s.Busy() {
		s.lastRetire = s.cycle
		return nil
	}
	if s.cycle < s.recoveryHold {
		// A post-recovery backoff hold is intentional quiescence, not a
		// livelock: the retirement clock restarts when the input does.
		s.lastRetire = s.cycle
		return nil
	}
	if s.cycle-s.lastRetire <= uint64(s.cfg.WatchdogCycles) {
		return nil
	}
	s.stats.WatchdogTrips++
	if s.probes != nil {
		s.probes.onWatchdog(s.cycle, s.lastRetire)
	}
	return &livelockError{
		Cycle:      s.cycle,
		LastRetire: s.lastRetire,
		StallPoint: s.stallPoint,
		Policy:     s.cfg.Policy,
		InFlight:   s.stages.count(),
		Reloading:  s.reload.len(),
	}
}
