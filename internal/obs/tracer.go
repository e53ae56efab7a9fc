package obs

// Tracer is the cycle-level event stream of one pipeline. It keeps a
// bounded ring of recent events (the post-mortem view a hardware ILA
// would capture) and forwards every event to the attached sinks.
//
// A nil *Tracer is the disabled state: Emit on nil is a no-op, so
// producers thread the pointer through unconditionally and pay only a
// nil check when tracing is off.
type Tracer struct {
	ring    []Event
	next    int
	filled  bool
	sinks   []Sink
	emitted uint64
}

// defaultRingSize bounds the in-memory event ring when the caller does
// not choose one.
const defaultRingSize = 4096

// NewTracer builds a tracer with the given ring capacity (<= 0 selects
// defaultRingSize) and sinks.
func NewTracer(ringSize int, sinks ...Sink) *Tracer {
	if ringSize <= 0 {
		ringSize = defaultRingSize
	}
	return &Tracer{ring: make([]Event, ringSize), sinks: sinks}
}

// Emit records one event. Safe on a nil tracer.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.emitted++
	t.ring[t.next] = ev
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.filled = true
	}
	for _, s := range t.sinks {
		s.Record(ev)
	}
}

// Enabled reports whether the tracer records events.
func (t *Tracer) Enabled() bool { return t != nil }

// Emitted returns the total number of events emitted.
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	return t.emitted
}

// Recent returns the ring contents in emission order (oldest first).
// The ring holds the most recent min(Emitted, ring size) events.
func (t *Tracer) Recent() []Event {
	if t == nil {
		return nil
	}
	if !t.filled {
		return append([]Event(nil), t.ring[:t.next]...)
	}
	out := make([]Event, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	return append(out, t.ring[:t.next]...)
}

// Flush flushes every sink, returning the first error.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	var first error
	for _, s := range t.sinks {
		if err := s.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
