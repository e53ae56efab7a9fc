// Command ehdl-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	ehdl-bench                 # everything; prints internal/experiments/testdata/tables.golden byte for byte
//	ehdl-bench -exp fig9a      # one experiment
//	ehdl-bench -packets 20000  # higher-fidelity measurement points
//	ehdl-bench -runtime-trace bench.trace   # annotate experiments as trace tasks
//
// Experiment identifiers: table1, fig8, fig9a, fig9b, fig9c, fig10,
// table2, table3, table4, table5, single-flow, pruning, power, hazard,
// framing, lb, resilience, protection, liveupdate, scaling, tenancy.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"ehdl/internal/experiments"
	"ehdl/internal/obs"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		exp     = flag.String("exp", "all", "experiment id or 'all'")
		packets = flag.Int("packets", 0, "packets per measurement point (0: experiments.Config's default, which the golden file is recorded at)")
		list    = flag.Bool("list", false, "list experiment ids")

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

	cfg := experiments.Config{Packets: *packets}
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
