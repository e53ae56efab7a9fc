package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"text/tabwriter"
)

// Verdicts of one compared metric.
const (
	withinBound = "within bound"
	regressed   = "regressed"
	// unresolved: the median moved past the bound, but the run-to-run
	// spread is wider than the bound and the two runs overlap.
	unresolved = "unresolved"
	// changed: an exact metric moved at all, in the better direction.
	changed = "changed (exact metric moved)"
)

func readResult(path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// judge compares metric d of run b against base a.
func judge(d metricDef, a, b Summary) string {
	worse := b.Median - a.Median // lower is better
	if d.Better == "higher" {
		worse = -worse
	}
	if d.Exact {
		switch {
		case worse > 0:
			return regressed
		case worse < 0:
			return changed
		}
		return withinBound
	}
	limit := d.Bound * a.Median
	if d.Abs > limit {
		limit = d.Abs
	}
	if worse <= limit {
		return withinBound
	}
	spread := a.P75 - a.P25
	if s := b.P75 - b.P25; s > spread {
		spread = s
	}
	overlap := a.P25 <= b.P75 && b.P25 <= a.P75
	if spread > limit && overlap {
		return unresolved
	}
	return regressed
}

// compareFiles prints one row per workload and end-to-end metric and
// reports whether any row regressed. It refuses files that were not
// measured alike.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	switch {
	case a.NumCPU != b.NumCPU || a.GOMAXPROCS != b.GOMAXPROCS:
		return false, fmt.Errorf("refusing to compare: numcpu/GOMAXPROCS %d/%d vs %d/%d", a.NumCPU, a.GOMAXPROCS, b.NumCPU, b.GOMAXPROCS)
	case a.Seed != b.Seed:
		return false, fmt.Errorf("refusing to compare: seed %d vs %d", a.Seed, b.Seed)
	case len(a.Workloads) != len(b.Workloads):
		return false, fmt.Errorf("refusing to compare: %d vs %d workloads", len(a.Workloads), len(b.Workloads))
	}
	any := false
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\ta median [p25 p75]\tb median [p25 p75]\tb/a\tverdict\n")
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		if wa.Name != wb.Name || wa.ChunkFrames != wb.ChunkFrames || wa.ChunksPerTrial != wb.ChunksPerTrial ||
			wa.WarmupChunks != wb.WarmupChunks || !reflect.DeepEqual(wa.Params, wb.Params) {
			return false, fmt.Errorf("refusing to compare: workload %d (%s vs %s) was configured differently", i, wa.Name, wb.Name)
		}
		if wa.EndToEnd == nil || wb.EndToEnd == nil {
			return false, fmt.Errorf("refusing to compare: %s has no end-to-end pass in one of the files", wa.Name)
		}
		for _, d := range endToEndDefs {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			verdict := judge(d, sa, sb)
			if verdict == regressed {
				any = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g [%.5g %.5g]\t%.5g [%.5g %.5g]\t%.4f of %.5g\t%s\n",
				wa.Name, d.Name, d.Unit, sa.Median, sa.P25, sa.P75, sb.Median, sb.P25, sb.P75,
				sb.Median/sa.Median, sa.Median, verdict)
		}
	}
	return any, tw.Flush()
}
