package rss

import (
	"strings"
	"testing"

	"ehdl/internal/core"
	"ehdl/internal/ebpf"
	"ehdl/internal/maps"
	"ehdl/internal/obs"
	"ehdl/internal/pktgen"
)

func TestSharingStrings(t *testing.T) {
	cases := map[core.Sharing]string{
		core.SharingShared:  "shared",
		core.SharingCounter: "counter",
		core.SharingFlow:    "flow",
		core.Sharing(9):     "sharing(9)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestMetricNames(t *testing.T) {
	if got := metricSteered(3); got != "rss.q3.steered" {
		t.Errorf("MetricSteered(3) = %q", got)
	}
	if got := MetricCompleted(2); got != "rss.q2.completed" {
		t.Errorf("MetricCompleted(2) = %q", got)
	}
}

// TestDispatcherMetered drives a metered dispatcher directly: steering
// counters, the fallback counter and the burst path (which must not
// advance the pacing clock).
func TestDispatcherMetered(t *testing.T) {
	reg := obs.NewRegistry()
	d, err := newDispatcher(DispatcherConfig{Queues: 4}, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	d.arm(3)
	gen := pktgen.NewGenerator(pktgen.GeneratorConfig{Flows: 16, PacketLen: 64, Seed: 3})
	for i := 0; i < 8; i++ {
		d.Offer(gen.Next())
	}
	// A burst frame shares the due cycle of the next paced arrival.
	burst, paced := gen.Next(), gen.Next()
	burstQ := d.offer(burst, false)
	d.Offer(paced)
	d.offer([]byte{0xde, 0xad}, false) // malformed: queue-0 fallback
	d.Close()

	var items []Item
	for q := 0; q < 4; q++ {
		for batch := range d.Sink(q) {
			items = append(items, batch...)
		}
	}
	if len(items) != 11 {
		t.Fatalf("%d items dispatched, want 11", len(items))
	}
	var burstDue, pacedDue uint64
	for _, it := range items {
		switch &it.Data[0] {
		case &burst[0]:
			burstDue = it.Due
		case &paced[0]:
			pacedDue = it.Due
		}
	}
	if burstDue == 0 || burstDue != pacedDue {
		t.Errorf("burst due %d, next paced due %d: bursts must pile onto the paced cycle", burstDue, pacedDue)
	}
	if d.fallbacks != 1 {
		t.Errorf("%d fallbacks, want 1", d.fallbacks)
	}
	if got, ok := reg.CounterValue(metricFallback); !ok || got != 1 {
		t.Errorf("fallback metric = %d (%v), want 1", got, ok)
	}
	var steered uint64
	for q := 0; q < 4; q++ {
		v, _ := reg.CounterValue(metricSteered(q))
		steered += v
	}
	if steered != 11 {
		t.Errorf("steered metrics sum to %d, want 11", steered)
	}
	if sum := d.perQueue; sum[burstQ] == 0 {
		t.Errorf("burst queue %d not counted in %v", burstQ, sum)
	}
}

// TestEngineAccessors exercises the small engine surface the bigger
// suites reach only indirectly: Pipeline, SetClock, KeepData,
// OfferBurst and the Start/Drain misuse errors.
func TestEngineAccessors(t *testing.T) {
	pl := compileApp(t, "toy")
	e, err := NewEngine(pl, Config{Queues: 2})
	if err != nil {
		t.Fatal(err)
	}
	if e.Pipeline() != pl {
		t.Error("Pipeline() lost the compiled design")
	}
	setupApp(t, "toy", e.HostMaps())
	e.SetClock(func() uint64 { return 42 })
	e.KeepData(true)

	if err := e.Start(1, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(1, nil); err == nil || !strings.Contains(err.Error(), "already running") {
		t.Errorf("double Start = %v, want already-running error", err)
	}
	gen := pktgen.NewGenerator(pktgen.GeneratorConfig{Flows: 8, PacketLen: 64, Seed: 5})
	for i := 0; i < 20; i++ {
		e.Offer(gen.Next())
	}
	e.OfferBurst(gen.Next())
	rs, err := e.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Arrivals != 21 {
		t.Errorf("arrivals = %d, want 21", rs.Arrivals)
	}
	if _, err := e.Drain(); err == nil {
		t.Error("Drain on a stopped engine should error")
	}
}

// TestBankedHostWritesAfterSeal covers the host port of a sealed banked
// map: updates broadcast and refresh the baseline, deletes retract it,
// lookups of untouched and missing keys serve the baseline rule.
func TestBankedHostWritesAfterSeal(t *testing.T) {
	spec := ebpf.MapSpec{Name: "conn", Kind: ebpf.MapHash, KeySize: 4, ValueSize: 4, MaxEntries: 16}
	b, err := newBanked(spec, core.SharingFlow, 2)
	if err != nil {
		t.Fatal(err)
	}
	k1 := []byte{1, 0, 0, 0}
	k2 := []byte{2, 0, 0, 0}
	if err := b.Update(k1, []byte{1, 1, 1, 1}, maps.UpdateAny); err != nil {
		t.Fatal(err)
	}
	// Pre-seal reads serve bank 0.
	if v, ok := b.Lookup(k1); !ok || v[0] != 1 {
		t.Fatalf("pre-seal lookup %v %v", v, ok)
	}
	if _, ok := b.Lookup(k2); ok {
		t.Fatal("pre-seal lookup invented a key")
	}
	b.seal()

	// A sealed host write is a config push: all banks and the baseline.
	if err := b.Update(k2, []byte{2, 2, 2, 2}, maps.UpdateAny); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 2; q++ {
		if v, ok := b.bank(q).Lookup(k2); !ok || v[0] != 2 {
			t.Fatalf("bank %d missed the sealed broadcast: %v %v", q, v, ok)
		}
	}
	// Refreshing the baseline means the merge sees no data-plane delta.
	if v, ok := b.Lookup(k2); !ok || v[0] != 2 {
		t.Fatalf("sealed lookup %v %v", v, ok)
	}
	if b.Conflicts() != 0 {
		t.Fatalf("host broadcast counted %d conflicts", b.Conflicts())
	}

	if err := b.Delete(k1); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Lookup(k1); ok {
		t.Fatal("k1 survived a sealed host delete")
	}
	if err := b.Delete(k1); err == nil {
		t.Error("double delete should surface bank 0's error")
	}
}
