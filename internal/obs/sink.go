package obs

import (
	"bufio"
	"encoding/json"
	"io"
)

// Sink receives every event the tracer emits. Sinks are single-writer:
// the pipeline clock is one goroutine, and the tracer forwards events
// in emission order.
type Sink interface {
	// Record observes one event. Implementations should not block the
	// cycle loop; errors are latched and surfaced by Flush.
	Record(ev Event)
	// Flush drains buffers and returns the first error encountered.
	Flush() error
}

// MemSink retains every event in memory — the sink the test suites
// assert over.
type MemSink struct {
	evs []Event
}

// NewMemSink returns an empty in-memory sink.
func NewMemSink() *MemSink { return &MemSink{} }

// Record implements Sink.
func (s *MemSink) Record(ev Event) { s.evs = append(s.evs, ev) }

// Flush implements Sink.
func (s *MemSink) Flush() error { return nil }

// Events returns the recorded events in emission order (aliasing the
// sink's storage).
func (s *MemSink) Events() []Event { return s.evs }

// JSONLSink writes one JSON object per event, newline-delimited — the
// interchange format of the golden-trace suite and the -trace flag.
// Encoding is deterministic: identical event streams produce
// byte-identical output.
type JSONLSink struct {
	w   *bufio.Writer
	err error
}

// NewJSONLSink wraps w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: bufio.NewWriter(w)}
}

// Record implements Sink.
func (s *JSONLSink) Record(ev Event) {
	if s.err != nil {
		return
	}
	b, err := json.Marshal(ev)
	if err != nil {
		s.err = err
		return
	}
	if _, err := s.w.Write(b); err != nil {
		s.err = err
		return
	}
	s.err = s.w.WriteByte('\n')
}

// Flush implements Sink.
func (s *JSONLSink) Flush() error {
	if s.err != nil {
		return s.err
	}
	return s.w.Flush()
}

// ParseJSONL decodes a JSONL trace back into events, for golden-trace
// comparison and offline analysis.
func ParseJSONL(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for dec.More() {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			return out, err
		}
		out = append(out, ev)
	}
	return out, nil
}

// TextSink renders events as aligned human-readable lines, a compact
// waveform-style dump for terminals.
type TextSink struct {
	w   *bufio.Writer
	err error
}

// NewTextSink wraps w.
func NewTextSink(w io.Writer) *TextSink {
	return &TextSink{w: bufio.NewWriter(w)}
}

// Record implements Sink.
func (s *TextSink) Record(ev Event) {
	if s.err != nil {
		return
	}
	_, s.err = s.w.WriteString(ev.String() + "\n")
}

// Flush implements Sink.
func (s *TextSink) Flush() error {
	if s.err != nil {
		return s.err
	}
	return s.w.Flush()
}
