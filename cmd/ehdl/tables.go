package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"

	"ehdl/internal/experiments"
	"ehdl/internal/obs"
)

// tablesCmd regenerates the paper's tables and figures.
//
//	ehdl tables                  # everything: internal/experiments/testdata/tables.golden byte for byte
//	ehdl tables -exp fig9a       # one experiment
//	ehdl tables -packets 20000   # higher-fidelity measurement points
//	ehdl tables -runtime-trace tables.trace   # one trace task per experiment
type tablesCmd struct {
	exp     string
	packets int
	prof    profiling
}

func (c *tablesCmd) declare(fs *flag.FlagSet) {
	fs.StringVar(&c.exp, "exp", "all", "experiment id or 'all'")
	fs.IntVar(&c.packets, "packets", 0, "packets per measurement point (0: experiments.Config's default, which the golden file is recorded at)")
	c.prof.declare(fs)
}

func (c *tablesCmd) run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		return usage(stderr, fmt.Errorf("unexpected arguments %q", args))
	}
	all := experiments.All()
	ids := experiments.IDs()
	if c.exp != "all" {
		if _, ok := all[c.exp]; !ok {
			return usage(stderr, fmt.Errorf("unknown experiment %q; the ids are %s", c.exp, strings.Join(ids, ", ")))
		}
		ids = []string{c.exp}
	}
	stop, err := c.prof.start(stderr)
	if err != nil {
		return fail(stderr, err)
	}
	defer stop()

	cfg := experiments.Config{Packets: c.packets}
	for _, id := range ids {
		// Each experiment is one task in the execution trace, so a
		// -runtime-trace run breaks down cleanly per table/figure.
		_, end := obs.Task(context.Background(), "experiment:"+id)
		tab, err := all[id](cfg)
		end()
		if err != nil {
			return fail(stderr, fmt.Errorf("%s: %v", id, err))
		}
		fmt.Fprintln(stdout, tab.String())
	}
	return 0
}
