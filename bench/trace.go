package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one timed interval recorded by the harness around a call into
// a layer's exported API. Times are nanoseconds since the tracer was
// created. Parent is the id of the enclosing span, -1 at the root.
type Span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Trial    int    `json:"trial"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the pass ends. A nil *Tracer
// records nothing, so the same code runs the untraced and the traced
// pass; the difference between the two is the tracing overhead.
type Tracer struct {
	workload string
	trial    int
	epoch    time.Time
	spans    []Span
	open     []int
}

func newTracer(workload string) *Tracer {
	return &Tracer{workload: workload, epoch: time.Now()}
}

func (t *Tracer) setTrial(trial int) {
	if t != nil {
		t.trial = trial
	}
}

// begin opens a span under the innermost open one and returns its id.
func (t *Tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Name: name, Workload: t.workload, Trial: t.trial,
		Start: time.Since(t.epoch).Nanoseconds(),
	})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *Tracer) end(id int) {
	if t == nil {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("bench: span closed out of order")
	}
	t.spans[id].End = time.Since(t.epoch).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its direct children cover (overlapping children are
// counted once).
func selfTimes(spans []Span) []int64 {
	children := make([][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			from, to := spans[k].Start, spans[k].End
			if from < edge {
				from = edge
			}
			if to > s.End {
				to = s.End
			}
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// traceFile is the on-disk form of one workload's traced pass.
type traceFile struct {
	Workload string  `json:"workload"`
	Spans    []Span  `json:"spans"`
	SelfNs   []int64 `json:"self_ns"`
}

func (t *Tracer) write(path string) error {
	data, err := json.Marshal(traceFile{Workload: t.workload, Spans: t.spans, SelfNs: selfTimes(t.spans)})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
