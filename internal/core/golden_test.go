package core

import (
	"crypto/sha256"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/ebpf"
)

const goldenPipelinesPath = "testdata/pipelines.golden"

// goldenOptions is the sweep of option sets the golden pins: every set
// the experiments price (the hdl package's netlist sweep).
var goldenOptions = []struct {
	name string
	opts Options
}{
	{"default", Options{}},
	{"DisablePruning", Options{DisablePruning: true}},
	{"DisableILP", Options{DisableILP: true}},
	{"DisableFusion", Options{DisableFusion: true}},
	{"DisableAtomics", Options{DisableAtomics: true}},
	{"FrameBytes32", Options{FrameBytes: 32}},
	{"FrameBytes128", Options{FrameBytes: 128}},
}

// goldenPrograms returns every bundled app's program, by name.
func goldenPrograms(t testing.TB) map[string]*ebpf.Program {
	t.Helper()
	out := map[string]*ebpf.Program{}
	for _, app := range append(apps.All(), apps.Toy(), apps.LeakyBucket(), apps.LoadBalancer()) {
		prog, err := app.Program()
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		out[app.Name] = prog
	}
	return out
}

// dumpPipeline renders everything Compile decides in a fixed order: the
// counters, the transformed program, each stage's ops (fused members,
// successor enables, access labels) with its carried registers, stack
// window and frame bypass, the blocks and the map blocks.
func dumpPipeline(p *Pipeline) string {
	var b strings.Builder
	fmt.Fprintf(&b, "elided %d removed %d fused %d nops %d stages %d\n",
		p.ElidedBoundsChecks, p.RemovedInstructions, p.FusedPairs, p.FramingNOPs, len(p.Stages))
	for i, ins := range p.Transformed.Instructions {
		fmt.Fprintf(&b, "ins %d %s\n", i, ins)
	}
	for s := range p.Stages {
		st := &p.Stages[s]
		fmt.Fprintf(&b, "stage %d %s carry %#x stack [%d,%d) bypass %d\n",
			s, st.Kind, st.CarryRegs, st.CarryStackLo, st.CarryStackHi, st.FrameBypass)
		for i := range st.Ops {
			op := &st.Ops[i]
			fmt.Fprintf(&b, "  op %s %d fused %v map %d helper %d block %d ends %v taken %d fall %d elided %v key %d/%v val %d/%v",
				op.Kind, op.Index, op.FusedIdx, op.MapID, op.Helper, op.BlockID, op.endsBlock,
				op.TakenBlock, op.FallBlock, op.BaseElided, op.KeyStackOff, op.KeyOffKnown, op.ValStackOff, op.ValOffKnown)
			if op.Access != nil {
				fmt.Fprintf(&b, " access %+v", *op.Access)
			}
			b.WriteByte('\n')
		}
	}
	for _, blk := range p.Blocks {
		fmt.Fprintf(&b, "block %d first %d\n", blk.ID, blk.FirstStage)
	}
	for _, mb := range p.Maps {
		fmt.Fprintf(&b, "map %d %s reads %v writes %v atomics %v atomic %v flush %v L %d K %d from %d war %d\n",
			mb.MapID, mb.Spec.Name, mb.ReadStages, mb.WriteStages, mb.AtomicStages, mb.UsesAtomics,
			mb.NeedsFlush, mb.L, mb.K, mb.FlushFromStage, mb.WARDepth)
	}
	return b.String()
}

// TestGoldenPipelines pins the compiler's output: one SHA-256 of
// dumpPipeline per bundled app and option set. A rewrite of a compiler
// pass must leave every line as it is. Delete the file and run the test
// to re-record (it fails once by design) — only for an intended change
// of the compiled designs.
func TestGoldenPipelines(t *testing.T) {
	progs := goldenPrograms(t)
	names := make([]string, 0, len(progs))
	for name := range progs {
		names = append(names, name)
	}
	sort.Strings(names)
	var got strings.Builder
	for _, name := range names {
		for _, o := range goldenOptions {
			p, err := Compile(progs[name], o.opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, o.name, err)
			}
			fmt.Fprintf(&got, "%s/%s %x\n", name, o.name, sha256.Sum256([]byte(dumpPipeline(p))))
		}
	}
	raw, err := os.ReadFile(goldenPipelinesPath)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPipelinesPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing: recorded, review and re-run", goldenPipelinesPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	want, have := strings.Split(string(raw), "\n"), strings.Split(got.String(), "\n")
	for i := 0; i < len(want) && i < len(have); i++ {
		if want[i] != have[i] {
			t.Errorf("got %q, recorded %q", have[i], want[i])
		}
	}
	if len(have) != len(want) {
		t.Fatalf("%d lines, recorded %d", len(have), len(want))
	}
}

// BenchmarkCompile compiles each bundled app under the default options:
// `go test -bench Compile -run '^$' ./internal/core` reports ns and
// allocations per compile, the figure the bench traces as
// core.compile_ms.
func BenchmarkCompile(b *testing.B) {
	progs := goldenPrograms(b)
	names := make([]string, 0, len(progs))
	for name := range progs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		prog := progs[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Compile(prog, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
