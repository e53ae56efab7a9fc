package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a named monotonic counter. Increments are atomic so the
// host side (reports, a live CLI) can read while the data plane writes.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram accumulates a distribution over fixed bucket bounds. It is
// single-writer (the pipeline clock loop); readers that race the writer
// get approximate totals, which is what a live metrics dump wants.
type Histogram struct {
	bounds []uint64 // inclusive upper bounds; an implicit +inf bucket follows
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64
	max    atomic.Uint64
}

// newHistogram builds a histogram over the given sorted upper bounds.
func newHistogram(bounds []uint64) *Histogram {
	h := &Histogram{bounds: append([]uint64(nil), bounds...)}
	h.counts = make([]atomic.Uint64, len(bounds)+1)
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// mean returns the sample mean (0 when empty).
func (h *Histogram) mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// quantile returns an upper bound for the q-quantile: the bound of the
// bucket the quantile falls in (the largest sample for the overflow
// bucket). q is clamped to [0, 1].
func (h *Histogram) quantile(q float64) uint64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.max.Load()
		}
	}
	return h.max.Load()
}

// ExpBuckets returns n exponentially growing upper bounds starting at
// start and multiplying by factor (at least 1 step per bucket).
func ExpBuckets(start uint64, factor float64, n int) []uint64 {
	out := make([]uint64, 0, n)
	cur := float64(start)
	last := uint64(0)
	for i := 0; i < n; i++ {
		b := uint64(cur)
		if b <= last {
			b = last + 1
		}
		out = append(out, b)
		last = b
		cur *= factor
	}
	return out
}

// LinearBuckets returns n upper bounds start, start+step, ...
func LinearBuckets(start, step uint64, n int) []uint64 {
	if step == 0 {
		step = 1
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = start + uint64(i)*step
	}
	return out
}

// Registry is a namespace of counters and histograms. Get-or-create is
// idempotent, so producers resolve their instruments once at
// initialisation and hot paths touch only the instrument.
type Registry struct {
	mu    sync.Mutex
	ctrs  map[string]*Counter
	hists map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{ctrs: map[string]*Counter{}, hists: map[string]*Histogram{}}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.ctrs[name]
	if !ok {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (later bounds are ignored).
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// CounterValue returns the named counter's value (0, false when the
// counter was never registered).
func (r *Registry) CounterValue(name string) (uint64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.ctrs[name]
	if !ok {
		return 0, false
	}
	return c.Value(), true
}

// HistogramByName returns the named histogram if registered.
func (r *Registry) HistogramByName(name string) (*Histogram, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	return h, ok
}

// names returns every registered instrument name, sorted.
func (r *Registry) names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.ctrs)+len(r.hists))
	for n := range r.ctrs {
		out = append(out, n)
	}
	for n := range r.hists {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Render writes a deterministic, sorted dump of every instrument — the
// output of `ehdl sim -metrics`.
func (r *Registry) Render(w io.Writer) error {
	for _, name := range r.names() {
		r.mu.Lock()
		c, isCtr := r.ctrs[name]
		h := r.hists[name]
		r.mu.Unlock()
		var err error
		if isCtr {
			_, err = fmt.Fprintf(w, "%-36s %d\n", name, c.Value())
		} else {
			_, err = fmt.Fprintf(w, "%-36s count=%d sum=%d mean=%.1f p50=%d p99=%d max=%d\n",
				name, h.Count(), h.sum.Load(), h.mean(), h.quantile(0.50), h.quantile(0.99), h.max.Load())
		}
		if err != nil {
			return err
		}
	}
	return nil
}
