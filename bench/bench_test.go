package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// smokeWorkloads are the four workloads at smoke-test size: the same
// configurations, two tiny chunks per trial (one single-epoch chunk for
// the fleet, whose chunk is a whole fresh controller).
func smokeWorkloads() []workload {
	ws := workloads()
	for i := range ws {
		if ws[i].warmup == 0 {
			ws[i].chunkFrames = tenantsSpec.epochPackets
			continue
		}
		ws[i].chunks = 2
		ws[i].chunkFrames = 2048
	}
	return ws
}

var smokeOptions = options{seed: 1, trials: 2, setupSamples: 2, loopScale: 1.0 / 64}

// manifest is BENCHMARK.json at the repo root.
type manifest struct {
	Command    []string                     `json:"command"`
	Paths      []string                     `json:"paths"`
	RunSeconds int                          `json:"run_seconds"`
	Workloads  []struct{ Name, Why string } `json:"workloads"`
	EndToEnd   []metricDef                  `json:"end_to_end"`
	PerLayer   []metricDef                  `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesHarness holds BENCHMARK.json against the tables the
// harness reports from, and against the contract's limits.
func TestManifestMatchesHarness(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) > 8 || len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 {
		t.Fatalf("too many entries: %d workloads, %d end-to-end, %d per-layer", len(m.Workloads), len(m.EndToEnd), len(m.PerLayer))
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
	ws := workloads()
	if len(m.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(m.Workloads), len(ws))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for i, w := range ws {
		unique(w.name)
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), harness has %q (%q)", i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	check := func(kind string, got, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		for i, d := range want {
			unique(d.Name)
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, harness has %+v", kind, i, g, d)
			}
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: unit %q does not match %s", d.Name, d.Unit, unitRE)
			}
			if d.Better != "higher" && d.Better != "lower" {
				t.Errorf("%s: better = %q", d.Name, d.Better)
			}
			if bounded && (d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEndDefs, true)
	check("per_layer", m.PerLayer, perLayerDefs, false)
	for _, d := range endToEndDefs {
		if d.Name != "setup_s" && d.Bound > endToEndDefs[len(endToEndDefs)-1].Bound {
			t.Errorf("%s: bound %v exceeds setup_s's, which must be the largest", d.Name, d.Bound)
		}
	}
}

// TestSmoke runs all four workloads and the traced pass at tiny size and
// checks what one command must deliver: every metric once per workload,
// no failed frame, and traces that parse with every parent resolving.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	ws := smokeWorkloads()
	results, err := run(ws, smokeOptions, bothPasses, dir)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	report(&out, &Result{Workloads: results})
	lines := strings.Split(out.String(), "\n")
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...) {
		n := 0
		for _, l := range lines {
			if f := strings.Fields(l); len(f) > 0 && f[0] == d.Name {
				n++
				if len(f) < 2+len(ws) {
					t.Errorf("%s: row %q lacks a column per workload", d.Name, l)
				}
			}
		}
		if n != 1 {
			t.Errorf("%s printed %d times, want once", d.Name, n)
		}
	}
	for i, r := range results {
		if r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d", r.Name, r.Attempted, r.Failed)
		}
		if len(r.EndToEnd) != len(endToEndDefs) || len(r.PerLayer) != len(perLayerDefs) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics, want %d and %d", r.Name, len(r.EndToEnd), len(r.PerLayer), len(endToEndDefs), len(perLayerDefs))
		}
		for _, d := range endToEndDefs {
			if v := r.EndToEnd[d.Name].Median; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end %s = %v, must be a positive number", r.Name, d.Name, v)
			}
		}
		if got, want := r.PerLayer["nic.fastpath_engaged"].Median == 1, ws[i].wantFast; got != want {
			t.Errorf("%s: nic.fastpath_engaged = %v, want %v", r.Name, got, want)
		}
		for _, mode := range []int{endToEnd, tracedOnly} {
			var line bytes.Buffer
			if code := lastLine(&line, r, mode); code != 0 {
				t.Fatalf("%s: lastLine exit %d", r.Name, code)
			}
			var obj struct {
				Correct   *bool
				Attempted *uint64
				Failed    *uint64
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			dec := json.NewDecoder(&line)
			dec.DisallowUnknownFields()
			if err := dec.Decode(&obj); err != nil {
				t.Fatalf("%s: last line: %v", r.Name, err)
			}
			defs := endToEndDefs
			if mode == tracedOnly {
				defs = perLayerDefs
			}
			if obj.Correct == nil || !*obj.Correct || obj.Attempted == nil || obj.Failed == nil || len(obj.Metrics) != len(defs) {
				t.Errorf("%s mode %d: malformed last line", r.Name, mode)
			}
			for _, d := range defs {
				if v, ok := obj.Metrics[d.Name]; !ok || v.Value == nil || v.Unit != d.Unit {
					t.Errorf("%s mode %d: metric %s missing or without unit %s", r.Name, mode, d.Name, d.Unit)
				}
			}
		}

		data, err := os.ReadFile(filepath.Join(dir, "trace_"+r.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Fatalf("%s: trace does not parse: %v", r.Name, err)
		}
		if len(tf.Spans) == 0 || len(tf.SelfNs) != len(tf.Spans) {
			t.Fatalf("%s: %d spans, %d self times", r.Name, len(tf.Spans), len(tf.SelfNs))
		}
		names := map[string]bool{}
		for id, s := range tf.Spans {
			names[s.Name] = true
			if s.ID != id || s.Parent >= id || s.Parent < -1 {
				t.Fatalf("%s: span %d has id %d, parent %d", r.Name, id, s.ID, s.Parent)
			}
			if s.End < s.Start || s.Workload != r.Name {
				t.Errorf("%s: span %d malformed: %+v", r.Name, id, s)
			}
			if p := s.Parent; p >= 0 && (s.Start < tf.Spans[p].Start || s.End > tf.Spans[p].End) {
				t.Errorf("%s: span %d not inside its parent %d", r.Name, id, p)
			}
			if tf.SelfNs[id] < 0 || tf.SelfNs[id] > s.End-s.Start {
				t.Errorf("%s: span %d self time %d outside [0, %d]", r.Name, id, tf.SelfNs[id], s.End-s.Start)
			}
		}
		for _, want := range []string{"trial", "setup", "chunk", "layer:pktgen.next_ns"} {
			if !names[want] {
				t.Errorf("%s: trace has no %q span", r.Name, want)
			}
		}
	}
}

// TestSilentFallbackIsAnError demonstrates that a failed correctness
// check ends the run with an error naming the check: a workload that
// expects the compiled engine where the interpreter serves.
func TestSilentFallbackIsAnError(t *testing.T) {
	var leaky workload
	for _, w := range smokeWorkloads() {
		if w.name == "leaky_zipf_interp" {
			leaky = w
		}
	}
	leaky.wantFast = true
	_, err := run([]workload{leaky}, smokeOptions, endToEnd, t.TempDir())
	var ce checkError
	if !errors.As(err, &ce) || ce.check != "nic.fastpath_engaged" {
		t.Fatalf("run = %v, want a failed nic.fastpath_engaged check", err)
	}
}

// TestExactMetricDriftIsAnError: a chunk that does not reproduce trial
// 0's simulated figures ends the run.
func TestExactMetricDriftIsAnError(t *testing.T) {
	r := &runner{w: workload{name: "w"}}
	if err := r.note(0, simStats{Frames: 10, SimMpps: 1}); err != nil {
		t.Fatal(err)
	}
	r.trials = 1
	if err := r.note(0, simStats{Frames: 10, SimMpps: 1}); err != nil {
		t.Fatal(err)
	}
	err := r.note(0, simStats{Frames: 10, SimMpps: 1.0000001})
	var ce checkError
	if !errors.As(err, &ce) || ce.check != "exact-metric-repeat" || !strings.Contains(ce.detail, "SimMpps:1.0000001") {
		t.Fatalf("note = %v, want an exact-metric-repeat failure showing the drifted SimMpps", err)
	}
}

func TestQuantiles(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.9, 4.6}} {
		if got := quantile(v, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if v[0] != 5 {
		t.Error("quantile sorted its argument in place")
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	s := summarize(v)
	if s.Median != 3 || s.P25 != 2 || s.P75 != 4 || s.Min != 1 || s.Max != 5 || s.N != 5 {
		t.Errorf("summarize = %+v", s)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 60}, // overlaps span 1: counted once
		{ID: 3, Parent: 1, Start: 15, End: 20},
		{ID: 4, Parent: 0, Start: 90, End: 100},
	}
	want := []int64{40, 25, 30, 5, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestTracerNesting(t *testing.T) {
	var off *Tracer
	off.end(off.begin("nothing")) // a nil tracer records nothing and never panics
	tr := newTracer("w")
	tr.setTrial(3)
	a := tr.begin("a")
	b := tr.begin("b")
	tr.end(b)
	tr.end(a)
	if len(tr.spans) != 2 || tr.spans[b].Parent != a || tr.spans[a].Parent != -1 || tr.spans[b].Trial != 3 {
		t.Errorf("spans = %+v", tr.spans)
	}
}

func TestJudge(t *testing.T) {
	host := metricDef{Name: "host_mpps", Better: "higher", Bound: 0.10}
	exactLat := metricDef{Name: "sim_latency_cycles", Better: "lower", Bound: 0.02, Exact: true}
	allocs := metricDef{Name: "host_allocs_per_pkt", Better: "lower", Bound: 0.05, Abs: 0.02}
	tight := func(v float64) Summary { return Summary{Median: v, P25: v * 0.99, P75: v * 1.01} }
	wide := func(v float64) Summary { return Summary{Median: v, P25: v * 0.8, P75: v * 1.2} }
	for _, c := range []struct {
		d    metricDef
		a, b Summary
		want string
	}{
		{host, tight(3), tight(2.8), withinBound},
		{host, tight(3), tight(3.5), withinBound},
		{host, tight(3), tight(2.5), regressed},
		{host, wide(3), wide(2.5), unresolved},
		{exactLat, exact(205), exact(205), withinBound},
		{exactLat, exact(205), exact(205.5), regressed},
		{exactLat, exact(205), exact(204), changed},
		{allocs, tight(0.001), tight(0.015), withinBound}, // inside the absolute slack
		{allocs, tight(30), tight(33), regressed},
	} {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %.4g -> %.4g) = %q, want %q", c.d.Name, c.a.Median, c.b.Median, got, c.want)
		}
	}
}

func TestCompareRefusesUnlikeRuns(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r Result) string {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	section := func(mpps float64) []*WorkloadResult {
		e2e := map[string]Summary{}
		for _, d := range endToEndDefs {
			e2e[d.Name] = exact(1)
		}
		e2e["host_mpps"] = exact(mpps)
		return []*WorkloadResult{{Name: "w", Params: map[string]any{"queues": 1.0}, EndToEnd: e2e}}
	}
	base := write("a.json", Result{NumCPU: 2, GOMAXPROCS: 2, Seed: 1, Workloads: section(3)})
	same := write("b.json", Result{NumCPU: 2, GOMAXPROCS: 2, Seed: 1, Workloads: section(2.9)})
	slow := write("c.json", Result{NumCPU: 2, GOMAXPROCS: 2, Seed: 1, Workloads: section(2)})
	cpus := write("d.json", Result{NumCPU: 8, GOMAXPROCS: 4, Seed: 1, Workloads: section(3)})
	seed := write("e.json", Result{NumCPU: 2, GOMAXPROCS: 2, Seed: 7, Workloads: section(3)})

	var out bytes.Buffer
	if bad, err := compareFiles(&out, base, same); err != nil || bad {
		t.Errorf("compare(a, b) = %v, %v; want no regression\n%s", bad, err, out.String())
	}
	if bad, err := compareFiles(&out, base, slow); err != nil || !bad || !strings.Contains(out.String(), regressed) {
		t.Errorf("compare(a, c) = %v, %v; want a regressed row", bad, err)
	}
	for _, other := range []string{cpus, seed} {
		if _, err := compareFiles(&out, base, other); err == nil {
			t.Errorf("compare(a, %s) accepted runs that were not measured alike", filepath.Base(other))
		}
	}
}
