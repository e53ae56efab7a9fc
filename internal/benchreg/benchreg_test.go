package benchreg

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// collectOnce shares one (expensive) collection across the tests.
var cached *Baseline

func collect(t *testing.T) *Baseline {
	t.Helper()
	if cached == nil {
		b, err := Collect(1500)
		if err != nil {
			t.Fatal(err)
		}
		cached = b
	}
	return cached
}

func TestCollectCoversEveryFigure(t *testing.T) {
	b := collect(t)
	if b.NumCPU != runtime.NumCPU() {
		t.Errorf("recorded %d CPUs, host has %d", b.NumCPU, runtime.NumCPU())
	}
	for _, k := range []string{
		"fig9a/firewall/mpps", "fig9a/suricata/mpps", "fig9b/router/latency_ns",
		"fig10/firewall/lut_pct", "fig10/firewall/bram_pct",
		"scaling/toy/q1/mpps", "scaling/toy/q8/mpps", "scaling/toy/speedup_4q",
		KeyFastpathToyMpps, "host/fastpath/firewall/mpps",
		KeyFastpathToyQ4Mpps, KeyFastpathToyQ4InterpMpps,
		KeyFastpathSpeedupQ1, KeyFastpathSpeedup4Q,
	} {
		if _, ok := b.Points[k]; !ok {
			t.Errorf("point %q missing", k)
		}
	}
	for k, v := range b.Points {
		if strings.HasSuffix(k, "/mpps") && v <= 0 {
			t.Errorf("%s = %f, want > 0", k, v)
		}
	}
}

// TestScalingSpeedupRecorded is the acceptance number: four replicas
// must sustain at least 2.5x the single queue's simulated throughput.
// The host-side figure is asserted only on hosts with the cores to
// show it; the recorded NumCPU explains the committed value either way.
func TestScalingSpeedupRecorded(t *testing.T) {
	b := collect(t)
	if sp := b.Points["scaling/toy/speedup_4q"]; sp < 2.5 {
		t.Errorf("simulated 4-queue speedup %.2fx, want >= 2.5x", sp)
	}
	if lost := b.Points["scaling/toy/q4/lost"]; lost != 0 {
		t.Errorf("4 queues lost %.0f packets at 85%% aggregate load", lost)
	}
	if runtime.NumCPU() >= 4 {
		if sp := b.Points["host/scaling/toy/speedup_4q"]; sp < 1.2 {
			t.Errorf("host-side 4-queue speedup %.2fx on a %d-CPU host, want parallel gain", sp, runtime.NumCPU())
		}
	}
}

// TestCollectDeterministic: every simulated point must be bit-equal
// across collections; only the host/ wall-clock points may move.
func TestCollectDeterministic(t *testing.T) {
	a := collect(t)
	b, err := Collect(1500)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range a.Points {
		if strings.HasPrefix(k, "host/") {
			continue
		}
		if got := b.Points[k]; got != want {
			t.Errorf("%s: %v then %v across two collections", k, want, got)
		}
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	base := &Baseline{Packets: 100, Points: map[string]float64{
		"fig9a/toy/mpps":           100,
		"fig9b/toy/latency_ns":     50,
		"host/scaling/toy/q1/mpps": 3,
	}}
	cur := &Baseline{Packets: 100, Points: map[string]float64{
		"fig9a/toy/mpps":           96,
		"fig9b/toy/latency_ns":     500, // not gated: latency is informational
		"host/scaling/toy/q1/mpps": 0.1, // not gated: host wall clock
	}}
	if regs := Compare(base, cur, 5); len(regs) != 0 {
		t.Errorf("4%% drop within 5%% tolerance flagged: %v", regs)
	}
	cur.Points["fig9a/toy/mpps"] = 94
	regs := Compare(base, cur, 5)
	if len(regs) != 1 || !strings.Contains(regs[0], "fig9a/toy/mpps") {
		t.Errorf("6%% drop not flagged: %v", regs)
	}
	delete(cur.Points, "fig9a/toy/mpps")
	if regs := Compare(base, cur, 5); len(regs) != 1 || !strings.Contains(regs[0], "disappeared") {
		t.Errorf("vanished point not flagged: %v", regs)
	}
	if regs := Compare(base, &Baseline{Packets: 99, Points: map[string]float64{}}, 5); len(regs) != 1 {
		t.Errorf("packet-count mismatch not flagged: %v", regs)
	}
}

// TestFastpathGates pins the compiled-path gate arithmetic: the gates
// arm only when the baseline records the fast-path keys; each gated
// point must stay above FastpathSlack of its own committed value,
// scaled down by the interpreter leg when the whole host is slow; a
// faster interpreter never fails a gate, however far the speedup
// ratios fall; a fast-path-only slowdown of 30% always does.
func TestFastpathGates(t *testing.T) {
	base := &Baseline{Packets: 100, Points: map[string]float64{
		KeyScalingToyQ1Mpps:        0.4,
		KeyFastpathToyMpps:         6,
		KeyFastpathToyQ4InterpMpps: 0.5,
		KeyFastpathToyQ4Mpps:       2,
		KeyFastpathSpeedupQ1:       15,
		KeyFastpathSpeedup4Q:       4,
	}}
	fresh := func() *Baseline {
		cur := &Baseline{Packets: 100, Points: map[string]float64{}}
		for k, v := range base.Points {
			cur.Points[k] = v
		}
		return cur
	}
	flagged := func(cur *Baseline, key string) bool {
		t.Helper()
		regs := Compare(base, cur, 5)
		switch {
		case len(regs) == 0:
			return false
		case len(regs) == 1 && strings.Contains(regs[0], key):
			return true
		}
		t.Fatalf("want at most one regression, on %s: %v", key, regs)
		return false
	}

	if regs := Compare(base, fresh(), 5); len(regs) != 0 {
		t.Errorf("baseline regressed against itself: %v", regs)
	}

	// A faster interpreter moves no floor: the fast path at its
	// committed rate passes although both ratios collapse below 1.
	cur := fresh()
	cur.Points[KeyScalingToyQ1Mpps] = 8
	cur.Points[KeyFastpathToyQ4InterpMpps] = 3
	cur.Points[KeyFastpathSpeedupQ1] = 0.75
	cur.Points[KeyFastpathSpeedup4Q] = 0.67
	if regs := Compare(base, cur, 5); len(regs) != 0 {
		t.Errorf("faster interpreter failed the fast-path gates: %v", regs)
	}
	// ...and buys the fast path no slack either: the cap holds at 1.
	cur.Points[KeyFastpathToyMpps] = 4.1 // 6 x 0.7 = 4.2
	if !flagged(cur, KeyFastpathToyMpps) {
		t.Error("31% fast-path slowdown hidden by a faster interpreter")
	}

	// A fast-path-only slowdown: 29% passes, 30% and beyond fail.
	for _, c := range []struct {
		key   string
		share float64
		fail  bool
	}{
		{KeyFastpathToyMpps, 0.71, false},
		{KeyFastpathToyMpps, FastpathSlack, true},
		{KeyFastpathToyMpps, 0.5, true},
		{KeyFastpathToyQ4Mpps, 0.71, false},
		{KeyFastpathToyQ4Mpps, FastpathSlack, true},
	} {
		cur := fresh()
		cur.Points[c.key] = base.Points[c.key] * c.share
		if got := flagged(cur, c.key); got != c.fail {
			t.Errorf("%s at %.0f%% of its baseline: flagged=%v, want %v", c.key, 100*c.share, got, c.fail)
		}
	}

	// A slow collection day halves both legs: the floor follows the
	// interpreter leg down, each gate by its own reference.
	cur = fresh()
	cur.Points[KeyScalingToyQ1Mpps] = 0.2
	cur.Points[KeyFastpathToyMpps] = 3 // floor 6 x 0.5 x 0.7 = 2.1
	if regs := Compare(base, cur, 5); len(regs) != 0 {
		t.Errorf("uniformly slow host flagged: %v", regs)
	}
	cur.Points[KeyFastpathToyMpps] = 2 // slower than the host explains
	if !flagged(cur, KeyFastpathToyMpps) {
		t.Error("sub-floor fast path on a slow host not flagged")
	}
	cur.Points[KeyFastpathToyMpps] = 3
	cur.Points[KeyFastpathToyQ4Mpps] = 1.2 // q4 reference did not slow: floor 1.4
	if !flagged(cur, KeyFastpathToyQ4Mpps) {
		t.Error("q4 gate borrowed the q1 leg's host-speed scale")
	}

	// A gated point that vanishes fails; the informational ratios may.
	cur = fresh()
	delete(cur.Points, KeyFastpathSpeedupQ1)
	delete(cur.Points, KeyFastpathSpeedup4Q)
	if regs := Compare(base, cur, 5); len(regs) != 0 {
		t.Errorf("informational ratios gated: %v", regs)
	}
	delete(cur.Points, KeyFastpathToyQ4Mpps)
	regs := Compare(base, cur, 5)
	if len(regs) != 1 || !strings.Contains(regs[0], "disappeared") {
		t.Errorf("vanished fast-path point not flagged: %v", regs)
	}

	// A baseline that predates the fast path arms nothing, whatever the
	// current collection contains.
	old := &Baseline{Packets: 100, Points: map[string]float64{KeyScalingToyQ1Mpps: 0.4}}
	if regs := Compare(old, &Baseline{Packets: 100, Points: map[string]float64{}}, 5); len(regs) != 0 {
		t.Errorf("pre-fastpath baseline armed gates: %v", regs)
	}
}

// TestRegressedFloor pins the shared floor rule: a drop within
// tolerance passes, a drop past it fails, improvements never fail, and
// a non-positive tolerance selects the default 5%.
func TestRegressedFloor(t *testing.T) {
	if Regressed(100, 96, 5) {
		t.Error("4% drop flagged at 5% tolerance")
	}
	if !Regressed(100, 94, 5) {
		t.Error("6% drop not flagged at 5% tolerance")
	}
	if Regressed(100, 150, 5) {
		t.Error("improvement flagged as regression")
	}
	if !Regressed(100, 90, 0) {
		t.Error("default tolerance not applied for tolerancePct=0")
	}
	if Regressed(0, 0, 5) {
		t.Error("zero baseline regressed against zero current")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	b := collect(t)
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := Save(path, b); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != b.Schema || got.Packets != b.Packets || got.NumCPU != b.NumCPU {
		t.Errorf("header mangled: %+v vs %+v", got, b)
	}
	if len(got.Points) != len(b.Points) {
		t.Fatalf("%d points survived of %d", len(got.Points), len(b.Points))
	}
	for k, v := range b.Points {
		if got.Points[k] != v {
			t.Errorf("%s: %v -> %v through JSON", k, v, got.Points[k])
		}
	}
	if regs := Compare(b, got, 5); len(regs) != 0 {
		t.Errorf("round-tripped baseline regressed against itself: %v", regs)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("loading a missing baseline succeeded")
	}
}

// TestBaselineSaveByteStable: the committed baseline file is diffed in
// review and hashed by the fleet config fingerprint path, so Save must
// emit byte-identical files for equal baselines — map keys sorted, one
// trailing newline.
func TestBaselineSaveByteStable(t *testing.T) {
	b := &Baseline{
		Schema: 1, Packets: 100, NumCPU: 8,
		Points: map[string]float64{
			"firewall/mpps": 2.5, "router/mpps": 1.25,
			"host/firewall/mpps": 30, "bridge/mpps": 3.75,
		},
	}
	dir := t.TempDir()
	p1, p2 := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := Save(p1, b); err != nil {
		t.Fatal(err)
	}
	if err := Save(p2, b); err != nil {
		t.Fatal(err)
	}
	d1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if string(d1) != string(d2) {
		t.Fatalf("two saves of one baseline differ:\n%s\n%s", d1, d2)
	}
	if !strings.Contains(string(d1), "\"bridge/mpps\"") {
		t.Fatal("points missing from saved baseline")
	}
	// Sorted keys: bridge < firewall < host < router in the output.
	if !(strings.Index(string(d1), "bridge/") < strings.Index(string(d1), "firewall/") &&
		strings.Index(string(d1), "firewall/") < strings.Index(string(d1), "host/")) {
		t.Error("saved point keys not sorted")
	}
	if d1[len(d1)-1] != '\n' {
		t.Error("saved baseline missing trailing newline")
	}
}
