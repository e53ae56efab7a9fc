package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter %d, want 8000", c.Value())
	}
	if same := r.Counter("x"); same != c {
		t.Fatal("get-or-create returned a different counter")
	}
	v, ok := r.CounterValue("x")
	if !ok || v != 8000 {
		t.Fatalf("CounterValue %d %v", v, ok)
	}
	if _, ok := r.CounterValue("missing"); ok {
		t.Fatal("missing counter reported present")
	}
}

func TestHistogram(t *testing.T) {
	h := newHistogram([]uint64{10, 100, 1000})
	for v := uint64(1); v <= 200; v++ {
		h.Observe(v)
	}
	h.Observe(5000) // overflow bucket
	if h.Count() != 201 {
		t.Fatalf("count %d", h.Count())
	}
	if h.max.Load() != 5000 {
		t.Fatalf("max %d", h.max.Load())
	}
	if got := h.quantile(0.5); got != 1000 {
		// 100 of 201 samples are <= 100; the 101st falls in (100, 1000].
		t.Fatalf("p50 %d, want 1000", got)
	}
	if got := h.quantile(0.01); got != 10 {
		t.Fatalf("p1 %d, want 10", got)
	}
	if got := h.quantile(1.0); got != 5000 {
		t.Fatalf("p100 %d, want 5000 (max of overflow bucket)", got)
	}
	if got := h.quantile(-1); got != 10 {
		t.Fatalf("clamped quantile %d", got)
	}
	if h.mean() <= 0 {
		t.Fatal("mean not positive")
	}
	if len(h.counts) != 4 {
		t.Fatalf("%d buckets for 3 bounds, want 4 (+inf last)", len(h.counts))
	}
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	if total != 201 {
		t.Fatalf("bucket counts sum %d", total)
	}

	empty := newHistogram([]uint64{1})
	if empty.quantile(0.5) != 0 || empty.mean() != 0 {
		t.Fatal("empty histogram not zero")
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(8, 2, 5)
	want := []uint64{8, 16, 32, 64, 128}
	for i := range want {
		if exp[i] != want[i] {
			t.Fatalf("exp buckets %v", exp)
		}
	}
	// A factor of 1 must still produce strictly increasing bounds.
	flat := ExpBuckets(4, 1, 3)
	if !(flat[0] < flat[1] && flat[1] < flat[2]) {
		t.Fatalf("flat-factor buckets not increasing: %v", flat)
	}
	lin := LinearBuckets(0, 0, 3)
	if !(lin[0] < lin[1] && lin[1] < lin[2]) {
		t.Fatalf("zero-step linear buckets not increasing: %v", lin)
	}
}

func TestRegistryRender(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(2)
	r.Counter("a.count").Add(1)
	h := r.Histogram("c.lat", ExpBuckets(1, 2, 8))
	h.Observe(3)
	h.Observe(200)
	if again := r.Histogram("c.lat", nil); again != h {
		t.Fatal("histogram get-or-create returned a different instance")
	}
	if _, ok := r.HistogramByName("c.lat"); !ok {
		t.Fatal("histogram not found by name")
	}

	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("rendered %d lines:\n%s", len(lines), out)
	}
	// Sorted order: a.count, b.count, c.lat.
	if !strings.HasPrefix(lines[0], "a.count") || !strings.HasPrefix(lines[2], "c.lat") {
		t.Fatalf("render order wrong:\n%s", out)
	}
	if !strings.Contains(lines[2], "count=2 sum=203 ") {
		t.Fatalf("histogram line %q", lines[2])
	}
	names := r.names()
	if len(names) != 3 || names[0] != "a.count" {
		t.Fatalf("names %v", names)
	}
}
