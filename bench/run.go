package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"
)

// options are the knobs of one benchmark invocation.
type options struct {
	seed int64
	// seconds is how long each workload's end-to-end pass measures;
	// the traced pass runs a third of it. trials, when positive, fixes
	// the trial count instead.
	seconds float64
	trials  int
	// setupSamples is the number of samples behind setup_s.
	setupSamples int
	// loopScale shortens the layer-drive loops; 1 in every real run.
	loopScale float64
}

// checkError is a failed correctness check that is not a frame: the run
// exits non-zero naming it.
type checkError struct {
	check  string
	detail string
}

func (e checkError) Error() string { return fmt.Sprintf("check %s failed: %s", e.check, e.detail) }

// runner accumulates one pass (untraced or traced) over one workload.
type runner struct {
	w  workload
	o  options
	tr *Tracer

	spent  time.Duration // wall time inside trials
	trials int

	setupS       []float64 // one sample per batch of fresh builds
	chunkMpps    []float64 // one sample per timed chunk, pooled across trials
	allocsPerPkt []float64 // one sample per trial
	frames       uint64    // offered in timed chunks
	failed       uint64

	// ref holds trial 0's ledger per chunk index; every later trial must
	// reproduce it bit for bit.
	ref  []simStats
	last simStats

	// layer holds the per-trial engine probe's samples (traced pass).
	probe *probe
	layer metrics

	allocBytes uint64
	gcCycles   uint32
	peakHeap   uint64
	cpu        time.Duration
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// done reports whether the pass has used its budget.
func (r *runner) done() bool {
	if r.o.trials > 0 {
		return r.trials >= r.o.trials
	}
	return r.trials > 0 && r.spent.Seconds() >= r.o.seconds
}

// build is one fresh build of everything before the first frame.
func (r *runner) build() (system, error) {
	id := r.tr.begin("setup")
	sys, err := r.w.build(r.w, r.o.seed, r.tr)
	r.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", r.w.name, err)
	}
	return sys, nil
}

// note checks one chunk's ledger against trial 0's chunk of equal index.
func (r *runner) note(idx int, st simStats) error {
	if idx == len(r.ref) && r.trials == 0 {
		r.ref = append(r.ref, st)
		return nil
	}
	if ref := r.ref[idx]; st != ref {
		return checkError{"exact-metric-repeat", fmt.Sprintf("%s: chunk %d of trial %d reads %+v, trial 0 read %+v", r.w.name, idx, r.trials, st, ref)}
	}
	return nil
}

// trial is one fresh build, its warm-up chunks and its timed chunks.
func (r *runner) trial() error {
	began := time.Now()
	r.tr.setTrial(r.trials)
	tid := r.tr.begin("trial")
	defer func() {
		r.tr.end(tid)
		r.spent += time.Since(began)
		r.trials++
	}()

	sys, err := r.build()
	if err != nil {
		return err
	}
	if got := sys.fastPath(); got != r.w.wantFast {
		return checkError{"nic.fastpath_engaged", fmt.Sprintf("%s: compiled engine serving = %v, workload expects %v", r.w.name, got, r.w.wantFast)}
	}
	runtime.GC()
	for i := 0; i < r.w.warmup; i++ {
		id := r.tr.begin("warmup")
		st, err := sys.chunk()
		r.tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: warm-up chunk: %w", r.w.name, err)
		}
		if err := r.note(i, st); err != nil {
			return err
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	var frames uint64
	for i := 0; i < r.w.chunks; i++ {
		id := r.tr.begin("chunk")
		t0 := time.Now()
		st, err := sys.chunk()
		d := time.Since(t0)
		r.tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: chunk %d: %w", r.w.name, i, err)
		}
		if err := r.note(r.w.warmup+i, st); err != nil {
			return err
		}
		r.chunkMpps = append(r.chunkMpps, float64(st.Frames)/d.Seconds()/1e6)
		frames += st.Frames
		r.failed += st.Failed
		r.last = st
	}
	r.cpu += cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	r.frames += frames
	r.allocsPerPkt = append(r.allocsPerPkt, float64(after.Mallocs-before.Mallocs)/float64(frames))
	r.allocBytes += after.TotalAlloc - before.TotalAlloc
	r.gcCycles += after.NumGC - before.NumGC
	if after.HeapInuse > r.peakHeap {
		r.peakHeap = after.HeapInuse
	}
	if r.tr == nil || r.w.engineProbe == nil {
		return nil
	}
	if r.probe == nil {
		if r.probe, err = r.w.engineProbe(r.o.seed, r.o); err != nil {
			return fmt.Errorf("%s: engine probe: %w", r.w.name, err)
		}
		r.layer = metrics{}
	}
	return r.layer.drive(r.tr, r.probe, 1)
}

// measureSetup times fresh builds for setup_s. A build lasts a few
// milliseconds and every second or third one pays a garbage collection,
// so one sample is the mean of setupBatch consecutive builds started
// from a collected heap: each sample then holds the same share of
// collector work, and the median over samples sits still.
func (r *runner) measureSetup() error {
	for len(r.setupS) < r.o.setupSamples {
		runtime.GC()
		t0 := time.Now()
		for i := 0; i < setupBatch; i++ {
			if _, err := r.build(); err != nil {
				return err
			}
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds()/setupBatch)
	}
	return nil
}

// pass runs trials of each runner round-robin (trial 1 of each, then
// trial 2 of each ...) so a slow stretch on a shared machine lands on
// every workload alike, until each has used its budget.
func pass(rs []*runner) error {
	for {
		active := false
		for _, r := range rs {
			if r.done() {
				continue
			}
			active = true
			if err := r.trial(); err != nil {
				return err
			}
		}
		if !active {
			return nil
		}
	}
}

// WorkloadResult is one workload's section of a result file.
type WorkloadResult struct {
	Name           string             `json:"name"`
	Params         map[string]any     `json:"params"`
	ChunkFrames    int                `json:"chunk_frames"`
	ChunksPerTrial int                `json:"chunks_per_trial"`
	WarmupChunks   int                `json:"warmup_chunks"`
	Trials         int                `json:"trials"`
	Chunks         int                `json:"chunks"`
	Attempted      uint64             `json:"attempted"`
	Failed         uint64             `json:"failed"`
	EndToEnd       map[string]Summary `json:"end_to_end,omitempty"`
	PerLayer       map[string]Summary `json:"per_layer,omitempty"`
	// Serial names the slowest serial stage where stages overlap across
	// goroutines and the layer budget is reported rather than checked.
	Serial string `json:"largest_serial_stage,omitempty"`
}

func (w workload) result() *WorkloadResult {
	return &WorkloadResult{
		Name: w.name, Params: w.params, ChunkFrames: w.chunkFrames,
		ChunksPerTrial: w.chunks, WarmupChunks: w.warmup,
	}
}

// gate runs the workload's conformance sample. A divergence fails every
// frame of the sample: the oracle reports only the first.
func gate(w workload, seed int64, res *WorkloadResult) {
	n, err := w.gate(seed)
	res.Attempted += uint64(n)
	if err != nil {
		fmt.Printf("%s: conformance sample diverged: %v\n", w.name, err)
		res.Failed += uint64(n)
	}
}

// ledger adds the pass's frames to the workload's attempt count.
func (r *runner) ledger(res *WorkloadResult) {
	res.Trials += r.trials
	res.Chunks += len(r.chunkMpps)
	res.Attempted += r.frames
	res.Failed += r.failed
}

// endToEnd folds an untraced pass into the seven end-to-end metrics.
func (r *runner) endToEnd(res *WorkloadResult) error {
	if err := r.measureSetup(); err != nil {
		return err
	}
	util, err := r.w.utilPct(r.o.seed)
	if err != nil {
		return err
	}
	r.ledger(res)
	res.EndToEnd = map[string]Summary{
		"host_mpps":           summarize(r.chunkMpps),
		"host_allocs_per_pkt": summarize(r.allocsPerPkt),
		"sim_mpps":            exact(r.last.SimMpps),
		"sim_latency_cycles":  exact(r.last.SimLatencyCycles),
		"design_util_pct":     exact(util),
		"delivered_frac":      exact(1 - float64(res.Failed)/float64(res.Attempted)),
		"setup_s":             summarize(r.setupS),
	}
	return nil
}

// perLayer folds a traced pass and the layer-drive loops into the
// per-layer metrics. refMpps is the untraced host_mpps of the same
// workload, the base of trace.overhead_pct.
func (r *runner) perLayer(res *WorkloadResult, refMpps float64) error {
	r.ledger(res)
	m := r.layer
	if m == nil {
		m = metrics{}
	}
	nsPerPkt := make([]float64, len(r.chunkMpps))
	chunkSpans := make([]float64, len(r.chunkMpps))
	for i, v := range r.chunkMpps {
		nsPerPkt[i] = 1e3 / v
		chunkSpans[i] = nsPerPkt[i] * r.w.chunkMetricScale
	}
	frames := float64(r.frames)
	m.set("host.cpu_ns_per_pkt", float64(r.cpu.Nanoseconds())/frames)
	m.set("host.chunk_ns_p90", quantile(nsPerPkt, 0.9))
	m.set("host.alloc_bytes_per_pkt", float64(r.allocBytes)/frames)
	m.set("host.gc_cycles", float64(r.gcCycles))
	m.set("host.peak_heap_mib", float64(r.peakHeap)/(1<<20))
	m.set("hwsim.cycles_per_pkt", r.last.CyclesPerPkt)
	m.set("hwsim.flushes_per_kpkt", r.last.FlushesPerKpkt)
	m.set("rss.steer_max_share", r.last.SteerMaxShare)
	m.set("rss.fallback_steers", r.last.FallbackSteers)
	m.set("tenant.throttled_frac", r.last.ThrottledFrac)
	m.set("tenant.quarantined_frac", r.last.QuarantinedFrac)
	m.set("fleet.ring_max_share", r.last.RingMaxShare)
	if r.w.wantFast {
		m.set("nic.fastpath_engaged", 1)
	}
	tracedMpps := median(r.chunkMpps)
	m.set("trace.overhead_pct", 100*(refMpps/tracedMpps-1))
	m[r.w.chunkMetric] = chunkSpans

	if err := r.w.layers(r.o.seed, r.o, r.tr, m); err != nil {
		return fmt.Errorf("%s: layer loops: %w", r.w.name, err)
	}

	e2e := 1e3 / tracedMpps
	if r.probe != nil {
		m.set("nic.self_ns", m.get("nic.runload_ns")-m.get(r.probe.name))
		if r.probe.name == "hwsim.exec_ns" {
			// The probe paces like the chunks, so it steps as many
			// cycles per frame as their report counts.
			m.set("hwsim.step_ns", m.get("hwsim.exec_ns")/r.last.CyclesPerPkt)
		}
	}
	if serve := m.get("tenant.serve_ns"); serve > 0 {
		m.set("fleet.self_ns", e2e-serve)
	}
	if q1 := m.get("nic.q1_mpps"); q1 > 0 {
		m.set("rss.scaling_x", tracedMpps/q1)
	}
	var sum, largest float64
	for _, name := range r.w.budget {
		v := m.get(name)
		sum += v
		if v > largest {
			largest, res.Serial = v, name
		}
	}
	residual := 100 * (e2e - sum) / e2e
	m.set("budget.sum_ns", sum)
	m.set("budget.e2e_ns", e2e)
	m.set("budget.residual_pct", residual)
	if r.w.budgetChecked {
		res.Serial = ""
		if math.Abs(residual) > budgetTolerancePct && r.o.loopScale >= 1 {
			return checkError{"budget.residual_pct", fmt.Sprintf("%s: layers sum to %.1f ns/frame, end to end is %.1f ns/frame (residual %.1f%%, tolerance %d%%)",
				r.w.name, sum, e2e, residual, budgetTolerancePct)}
		}
	}

	res.PerLayer = map[string]Summary{}
	for _, d := range perLayerDefs {
		res.PerLayer[d.Name] = summarize(m[d.Name])
		if len(m[d.Name]) == 0 {
			// The layer is not on this workload's path.
			res.PerLayer[d.Name] = exact(0)
		}
	}
	for name := range m {
		if _, ok := res.PerLayer[name]; !ok {
			return fmt.Errorf("%s: layer loop emitted undeclared metric %q", r.w.name, name)
		}
	}
	return nil
}

// setup_s is the median of setupSamples samples of setupBatch builds.
const (
	setupSamples = 40
	setupBatch   = 4
)

// budgetTolerancePct is how far the independently timed layers may sit
// from the end-to-end figure on the single-goroutine shell workloads.
const budgetTolerancePct = 15
