// Command bench is the repository's one benchmark: four workloads, seven
// end-to-end metrics each, and a per-layer ns/packet budget measured
// from outside the program. See README.md beside this file.
//
//	go run ./bench                       every workload, then the traced pass
//	go run ./bench -workload fw_q1_fast -trace 0   one workload, end to end
//	go run ./bench -workload fw_q1_fast -trace 1   one workload, per layer
//	go run ./bench compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"text/tabwriter"
)

// Pass selection of the -trace flag.
const (
	bothPasses = -1 // end-to-end pass, then traced pass (the default)
	endToEnd   = 0  // end-to-end pass only
	tracedOnly = 1  // a short untraced reference, then the traced pass
)

// Result is a result file: provenance, then one section per workload.
type Result struct {
	NumCPU     int               `json:"numcpu"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Commit     string            `json:"commit"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trials     int               `json:"trials,omitempty"`
	Workloads  []*WorkloadResult `json:"workloads"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		if len(args) != 3 {
			fmt.Fprintln(stderr, "usage: bench compare a.json b.json")
			return 2
		}
		regressed, err := compareFiles(stdout, args[1], args[2])
		if err != nil {
			fmt.Fprintln(stderr, "bench compare:", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}

	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "traffic seed; reaches only pktgen and fleet, the program sees frames")
	name := fs.String("workload", "", "run one workload (default: all four, trials interleaved)")
	seconds := fs.Float64("seconds", 20, "measuring time per workload; the traced pass runs a third of it")
	trials := fs.Int("trials", 0, "fix the trial count per workload instead of -seconds")
	trace := fs.Int("trace", bothPasses, "0: end-to-end pass only, 1: traced per-layer pass only (default: both)")
	out := fs.String("out", filepath.Join("bench", "out", "result.json"), "result file; traces are written beside it")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	ws := workloads()
	if *name != "" {
		ws = nil
		for _, w := range workloads() {
			if w.name == *name {
				ws = []workload{w}
			}
		}
		if ws == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
	}

	// One process sized for the machine: min(nproc, 4) threads.
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)

	o := options{seed: *seed, seconds: *seconds, trials: *trials, setupSamples: setupSamples, loopScale: 1}
	res := &Result{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: procs, GoVersion: runtime.Version(),
		Commit: commit(), Seed: o.seed, Seconds: o.seconds, Trials: o.trials,
	}
	dir := filepath.Dir(*out)
	err := os.MkdirAll(dir, 0o755)
	if err == nil {
		res.Workloads, err = run(ws, o, *trace, dir)
	}
	if err == nil {
		var data []byte
		if data, err = json.MarshalIndent(res, "", " "); err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	report(stdout, res)
	fmt.Fprintf(stdout, "result written to %s\n", *out)
	if len(ws) == 1 && *trace != bothPasses {
		return lastLine(stdout, res.Workloads[0], *trace)
	}
	return 0
}

// run gates every workload on the conformance oracle, runs the passes
// the mode selects and returns one section per workload.
func run(ws []workload, o options, mode int, traceDir string) ([]*WorkloadResult, error) {
	results := make([]*WorkloadResult, len(ws))
	for i, w := range ws {
		results[i] = w.result()
		gate(w, o.seed, results[i])
	}

	// End-to-end metrics come from the untraced pass alone.
	if mode != tracedOnly {
		untraced := make([]*runner, len(ws))
		for i, w := range ws {
			untraced[i] = &runner{w: w, o: o}
		}
		if err := pass(untraced); err != nil {
			return nil, err
		}
		for i, r := range untraced {
			if err := r.endToEnd(results[i]); err != nil {
				return nil, err
			}
		}
	}
	if mode == endToEnd {
		return results, nil
	}

	// The traced pass repeats each workload at a third of its length,
	// its trials alternating with an untraced reference of the same
	// length: the difference between the two is trace.overhead_pct.
	third := o
	third.seconds = o.seconds / 3
	if o.trials > 0 {
		third.trials = (o.trials + 2) / 3
	}
	var pairs []*runner
	for _, w := range ws {
		pairs = append(pairs, &runner{w: w, o: third}, &runner{w: w, o: third, tr: newTracer(w.name)})
	}
	if err := pass(pairs); err != nil {
		return nil, err
	}
	for i := range ws {
		ref, traced := pairs[2*i], pairs[2*i+1]
		ref.ledger(results[i])
		if err := traced.perLayer(results[i], median(ref.chunkMpps)); err != nil {
			return nil, err
		}
		if err := traced.tr.write(filepath.Join(traceDir, "trace_"+ws[i].name+".json")); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// commit names the source revision: the build's VCS stamp when there is
// one, else git asked about this directory only.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	if outp, err := cmd.Output(); err == nil {
		return strings.TrimSpace(string(outp))
	}
	return "unknown"
}

// report prints every metric by name with its unit.
func report(w io.Writer, res *Result) {
	fmt.Fprintf(w, "numcpu %d  GOMAXPROCS %d  %s  commit %s  seed %d\n",
		res.NumCPU, res.GOMAXPROCS, res.GoVersion, res.Commit, res.Seed)
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	tables := []struct {
		title   string
		defs    []metricDef
		section func(*WorkloadResult) map[string]Summary
		spread  bool
	}{
		{"end-to-end (untraced pass; median [p25 p75] n)", endToEndDefs,
			func(r *WorkloadResult) map[string]Summary { return r.EndToEnd }, true},
		{"per-layer (traced pass; median; 0 = layer not on this workload's path)", perLayerDefs,
			func(r *WorkloadResult) map[string]Summary { return r.PerLayer }, false},
	}
	for _, t := range tables {
		if t.section(res.Workloads[0]) == nil {
			continue
		}
		fmt.Fprintf(tw, "\n%s\nmetric\tunit", t.title)
		for _, r := range res.Workloads {
			fmt.Fprintf(tw, "\t%s", r.Name)
		}
		fmt.Fprintln(tw)
		for _, d := range t.defs {
			fmt.Fprintf(tw, "%s\t%s", d.Name, d.Unit)
			for _, r := range res.Workloads {
				s := t.section(r)[d.Name]
				if t.spread && s.N > 1 {
					fmt.Fprintf(tw, "\t%.5g [%.5g %.5g] n=%d", s.Median, s.P25, s.P75, s.N)
				} else {
					fmt.Fprintf(tw, "\t%.5g", s.Median)
				}
			}
			fmt.Fprintln(tw)
		}
	}
	tw.Flush()
	for _, r := range res.Workloads {
		fmt.Fprintf(w, "%s: %d trials, %d timed chunks of %d frames, attempted %d, failed %d\n",
			r.Name, r.Trials, r.Chunks, r.ChunkFrames, r.Attempted, r.Failed)
		if r.PerLayer == nil {
			continue
		}
		fmt.Fprintf(w, "%s: layers sum to %.1f ns/frame, end to end is %.1f ns/frame, residual %.1f%%",
			r.Name, r.PerLayer["budget.sum_ns"].Median, r.PerLayer["budget.e2e_ns"].Median, r.PerLayer["budget.residual_pct"].Median)
		if r.Serial != "" {
			fmt.Fprintf(w, " (reported, not checked; largest serial stage: %s)", r.Serial)
		}
		fmt.Fprintln(w)
	}
}

// lastLine prints the one-object summary a driver reads: every
// end-to-end metric of an untraced run, every per-layer metric of a
// traced one.
func lastLine(w io.Writer, r *WorkloadResult, mode int) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, section := endToEndDefs, r.EndToEnd
	if mode == tracedOnly {
		defs, section = perLayerDefs, r.PerLayer
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for _, d := range defs {
		line.Metrics[d.Name] = value{section[d.Name].Median, d.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(w, err)
		return 1
	}
	fmt.Fprintln(w, string(data))
	return 0
}
