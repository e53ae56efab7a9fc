// Command ehdl-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	ehdl-bench                 # everything
//	ehdl-bench -exp fig9a      # one experiment
//	ehdl-bench -packets 20000  # higher-fidelity measurement points
//	ehdl-bench -runtime-trace bench.trace   # annotate experiments as trace tasks
//
// The benchmark-regression harness rides on the same binary:
//
//	ehdl-bench -baseline-out BENCH_baseline.json    # record a baseline
//	ehdl-bench -baseline-check BENCH_baseline.json  # fail on >5% Mpps regression
//
// Experiment identifiers: table1, fig8, fig9a, fig9b, fig9c, fig10,
// table2, table3, table4, table5, single-flow, pruning, power, hazard,
// framing, lb, resilience, protection, liveupdate, scaling.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"ehdl/internal/benchreg"
	"ehdl/internal/experiments"
	"ehdl/internal/obs"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		exp      = flag.String("exp", "all", "experiment id or 'all'")
		packets  = flag.Int("packets", 8000, "packets per measurement point")
		fastPath = flag.Bool("fastpath", false, "serve eligible points from the compiled host fast path (hazard effects like flushes are not modelled there; ineligible points fall back to the interpreter)")
		list     = flag.Bool("list", false, "list experiment ids")

		baselineOut   = flag.String("baseline-out", "", "collect the regression baseline and write it to this JSON file")
		baselineCheck = flag.String("baseline-check", "", "re-collect and fail if Mpps regresses vs this baseline file")
		baselineTol   = flag.Float64("baseline-tol", benchreg.DefaultTolerancePct, "allowed Mpps regression, percent")

		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address for live profiling")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file when the run stops")
		rtTrace   = flag.String("runtime-trace", "", "write a runtime/trace execution trace to this file")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return 0
	}

	prof := obs.ProfileConfig{
		CPUFile:   *cpuProf,
		MemFile:   *memProf,
		TraceFile: *rtTrace,
		HTTPAddr:  *pprofAddr,
	}
	if prof.Enabled() {
		stop, addr, err := obs.StartProfiles(prof)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if addr != "" {
			fmt.Fprintf(os.Stderr, "pprof: serving on http://%s/debug/pprof/\n", addr)
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	if *baselineOut != "" || *baselineCheck != "" {
		return runBaseline(*baselineOut, *baselineCheck, *baselineTol)
	}

	cfg := experiments.Config{Packets: *packets, FastPath: *fastPath}
	all := experiments.All()

	ids := experiments.IDs()
	if *exp != "all" {
		if _, ok := all[*exp]; !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
			return 1
		}
		ids = []string{*exp}
	}

	for _, id := range ids {
		// Each experiment is one task in the execution trace, so a
		// -runtime-trace run breaks down cleanly per table/figure.
		_, end := obs.Task(context.Background(), "experiment:"+id)
		tab, err := all[id](cfg)
		end()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			return 1
		}
		fmt.Println(tab.String())
	}
	return 0
}

// runBaseline records or checks the benchmark-regression baseline. A
// check always re-measures at the baseline's own packet count so the
// drain-tail amortisation matches; the -packets flag does not apply.
func runBaseline(out, check string, tol float64) int {
	if check != "" {
		base, err := benchreg.Load(check)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		cur, err := benchreg.Collect(base.Packets)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if regs := benchreg.Compare(base, cur, tol); len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "benchmark regression vs %s (tolerance %.1f%%):\n", check, tol)
			for _, r := range regs {
				fmt.Fprintln(os.Stderr, "  "+r)
			}
			return 1
		}
		fmt.Printf("benchmark check passed: every gated point within %.1f%% of %s\n", tol, check)
		printPoints(cur)
		return 0
	}
	b, err := benchreg.Collect(benchreg.DefaultPackets)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := benchreg.Save(out, b); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("baseline written to %s (%d points, %d packets/point, %d CPUs)\n",
		out, len(b.Points), b.Packets, b.NumCPU)
	printPoints(b)
	return 0
}

func printPoints(b *benchreg.Baseline) {
	keys := make([]string, 0, len(b.Points))
	for k := range b.Points {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		gate := "  "
		switch {
		case strings.HasSuffix(k, "/mpps") && !strings.HasPrefix(k, "host/"):
			gate = "* " // gated against the baseline (5% tolerance)
		case k == benchreg.KeyFastpathToyMpps || k == benchreg.KeyFastpathToyQ4Mpps:
			gate = "* " // gated: fast-path floor (see benchreg.Compare)
		}
		fmt.Printf("  %s%-32s %12.3f\n", gate, k, b.Points[k])
	}
}
