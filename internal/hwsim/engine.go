package hwsim

import "ehdl/internal/maps"

// Core is the execution-engine surface shared by the cycle-accurate
// interpreter (*Sim) and the compiled host fast path
// (*fastpath.Machine). The NIC shell and the RSS engine drive a Core,
// so single-queue and multi-queue paths run either mode
// interchangeably; the interpreter remains the conformance oracle.
type Core interface {
	// Inject queues a packet for processing; false means refused
	// (queue full, counted as a drop, or quiesced, not counted).
	Inject(data []byte) bool
	// Step advances the engine by one clock cycle.
	Step() error
	// RunToCompletion steps until the engine drains, bounded.
	RunToCompletion(maxCycles uint64) error

	// Cycle returns the current clock cycle.
	Cycle() uint64
	// Busy reports whether work remains queued or in flight.
	Busy() bool
	// Drained reports the opposite of Busy.
	Drained() bool
	// InputFree reports whether the ingress accepts a packet now.
	InputFree() bool

	// Quiesce closes the ingress without counting drops; Resume
	// reopens it; Quiesced reports the state.
	Quiesce()
	Resume()
	Quiesced() bool

	// NextSeq returns the sequence number of the next accepted packet.
	NextSeq() uint64
	// OnComplete registers the retirement callback.
	OnComplete(fn func(Result))
	// KeepData makes results carry the final packet bytes.
	KeepData(keep bool)
	// SetClock overrides the nanosecond clock time helpers see.
	SetClock(fn func() uint64)
	// Now returns the nanosecond clock.
	Now() uint64
	// Maps exposes the engine's map memory (the host interface).
	Maps() *maps.Set
	// Stats returns a snapshot of the run counters.
	Stats() Stats
	// Window fills w with the counters accumulated since the previous
	// Window call (since construction for the first) and opens the next
	// window. w.LatencyMax is that window's own high-water mark, and w's
	// Actions map is reused, so a caller-owned w makes the call
	// allocation-free — how the shells measure one run.
	Window(w *Stats)
}

// Compile-time check that the interpreter satisfies the shared surface.
var _ Core = (*Sim)(nil)
