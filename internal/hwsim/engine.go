package hwsim

import (
	"ehdl/internal/core"
	"ehdl/internal/ebpf"
	"ehdl/internal/maps"
	"ehdl/internal/vm"
)

// Core is the execution-engine surface shared by the cycle-accurate
// interpreter (*Sim) and the host fast path (*fastpath.Machine) — what
// the NIC shell, the RSS engine and the conformance driver call, so
// single-queue and multi-queue paths run either interchangeably; the
// interpreter remains the conformance oracle.
type Core interface {
	// Inject queues a packet for processing; false means refused (queue
	// full, counted as a drop).
	Inject(data []byte) bool
	// Step advances the engine by one clock cycle.
	Step() error
	// RunToCompletion steps until the engine drains, bounded.
	RunToCompletion(maxCycles uint64) error

	// Cycle returns the current clock cycle.
	Cycle() uint64
	// Busy reports whether work remains queued or in flight.
	Busy() bool
	// InputFree reports whether the ingress accepts a packet now.
	InputFree() bool

	// OnComplete registers the retirement callback.
	OnComplete(fn func(Result))
	// KeepData makes results carry the final packet bytes.
	KeepData(keep bool)
	// SetClock overrides the nanosecond clock time helpers see; nil
	// restores the engine's own cycle clock.
	SetClock(fn func() uint64)
	// Maps exposes the engine's map memory (the host interface).
	Maps() *maps.Set
	// Stats returns a snapshot of the run counters.
	Stats() Stats
	// Window fills w with the counters accumulated since the previous
	// Window call (since construction for the first) and opens the next
	// window. w.LatencyMax is that window's own high-water mark. The call
	// allocates nothing (a program returning an R0 outside the five XDP
	// actions aside) — how the shells measure one run.
	Window(w *Stats)
}

// Compile-time check that the interpreter satisfies the shared surface.
var _ Core = (*Sim)(nil)

// Burst is the executor without the clock: a Sim's tables built
// hazard-free and as one burst (newSim), run a frame at a time, start to
// finish, on one private job. Executing packets one after another needs
// no hazard machinery, and the differential suites prove that order
// equal to the pipelined one; fastpath.Machine wraps the timing of a
// hazard-free pipeline around it.
type Burst struct {
	s *Sim
	j *job
}

// FrameRun is what one frame's run through a Burst left behind.
type FrameRun struct {
	Action   ebpf.XDPAction
	Redirect uint32
	Faults   uint64    // hardware bounds-check faults: Stats.MalformedDropped's share
	State    *vm.State // final architectural state, valid until the next Run
}

// NewBurst builds the executor of pl over env. Whatever looks at or
// strikes per-stage state — faults, probes, protection — is refused;
// env.Now is the caller's to provide.
func NewBurst(pl *core.Pipeline, cfg Config, env *vm.Env) (*Burst, error) {
	s, err := newSim(pl, cfg, env, true)
	if err != nil {
		return nil, err
	}
	return &Burst{s: s, j: s.newJob(0)}, nil
}

// Run executes one frame. The job can never replay, so re-arming it is
// the state reset and two clears: no frame copy, reads or snapshot.
func (b *Burst) Run(data []byte) (FrameRun, error) {
	s, j := b.s, b.j
	j.st.Reset(data, s.stackLo, s.stackHi)
	clear(j.enabled)
	setBit(j.enabled, 0) // the entry block is always enabled
	clear(j.lookups)
	j.done, j.action, j.redirect = false, 0, 0
	faults := s.stats.MalformedDropped
	err := s.execStage(j, 0)
	return FrameRun{j.action, j.redirect, s.stats.MalformedDropped - faults, j.st}, err
}
