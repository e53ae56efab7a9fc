package core

import (
	"fmt"
	"math/bits"
	"testing"

	"ehdl/internal/cfg"
	"ehdl/internal/ddg"
	"ehdl/internal/ebpf"
)

// The reference passes below are the compiler's earlier, iterated
// definitions of dead-code elimination, wiring and carried registers.
// The one-pass versions Compile runs must agree with them on every
// bundled app and option set (TestPassesMatchReferences).

// refLiveness is register liveness iterated to a fixpoint over every
// block, each instruction reading uses(i) and killing its definitions.
func refLiveness(info *ddg.Info, uses func(i int) uint16) (liveOut []uint16) {
	g := info.Graph
	n := len(info.Prog.Instructions)
	liveIn := make([]uint16, n)
	liveOut = make([]uint16, n)
	blockLiveOut := make([]uint16, len(g.Blocks))
	for changed := true; changed; {
		changed = false
		for b := len(g.Blocks) - 1; b >= 0; b-- {
			blk := g.Blocks[b]
			live := blockLiveOut[b]
			for i := blk.End - 1; i >= blk.Start; i-- {
				liveOut[i] = live
				live = live&^info.Prog.Instructions[i].DefMask() | uses(i)
				if liveIn[i] != live {
					liveIn[i] = live
					changed = true
				}
			}
			for _, p := range blk.Preds {
				if merged := blockLiveOut[p] | live; merged != blockLiveOut[p] {
					blockLiveOut[p] = merged
					changed = true
				}
			}
		}
	}
	return liveOut
}

// refDeadCodeElim removes unreachable blocks and side-effect-free
// instructions whose results are dead, re-analysing after each round
// until a round removes nothing.
func refDeadCodeElim(info *ddg.Info) (*ebpf.Program, int, error) {
	removedTotal := 0
	cur := info
	for {
		liveOut := refLiveness(cur, cur.UseMask)
		drop := map[int]bool{}
		reach := cur.Graph.Reachable()
		for b, blk := range cur.Graph.Blocks {
			if reach[b] {
				continue
			}
			for i := blk.Start; i < blk.End; i++ {
				drop[i] = true
			}
		}
		for i, ins := range cur.Prog.Instructions {
			if drop[i] || hasSideEffects(ins) {
				continue
			}
			if defs := ins.DefMask(); defs != 0 && liveOut[i]&defs == 0 {
				drop[i] = true
			}
		}
		if len(drop) == 0 {
			return cur.Prog, removedTotal, nil
		}
		removedTotal += len(drop)
		next, err := rewrite(cur.Prog, drop, nil)
		if err != nil {
			return nil, 0, err
		}
		if cur, err = analyze(next); err != nil {
			return nil, 0, err
		}
	}
}

// refWiringSet grows the wiring set one liveness round at a time: a
// wiring instruction consumes nothing, so each round may expose the
// next link of an address chain.
func refWiringSet(info *ddg.Info) []bool {
	wiring := make([]bool, len(info.Prog.Instructions))
	for {
		liveOut := refLiveness(info, func(i int) uint16 {
			if wiring[i] {
				return 0
			}
			return effectiveUses(info, i)
		})
		changed := false
		for i, ins := range info.Prog.Instructions {
			if wiring[i] || hasSideEffects(ins) {
				continue
			}
			if defs := ins.DefMask(); defs != 0 && liveOut[i]&defs == 0 {
				wiring[i] = true
				changed = true
			}
		}
		if !changed {
			return wiring
		}
	}
}

// defSite is one register definition in the transformed program.
type defSite struct {
	index int // instruction index; -1 for the entry pseudo-definition
	reg   ebpf.Register
}

// reachingInfo holds reaching-definition sets per instruction.
type reachingInfo struct {
	sites []defSite
	in    [][]uint64 // per instruction, bitset over sites
}

// refReachingDefs is the reaching-definitions fixpoint over bitsets of
// definition sites.
func refReachingDefs(p *Pipeline) *reachingInfo {
	prog := p.Transformed
	g := p.info.Graph
	n := len(prog.Instructions)

	var sites []defSite
	siteIdx := map[[2]int]int{}
	addSite := func(index int, reg ebpf.Register) {
		siteIdx[[2]int{index, int(reg)}] = len(sites)
		sites = append(sites, defSite{index: index, reg: reg})
	}
	addSite(-1, ebpf.R1)
	addSite(-1, ebpf.R10)
	for i := 0; i < n; i++ {
		for _, r := range prog.Instructions[i].Defs() {
			addSite(i, r)
		}
	}
	words := (len(sites) + 63) / 64
	killOf := make([][]uint64, ebpf.NumRegisters)
	for r := range killOf {
		killOf[r] = make([]uint64, words)
	}
	for i, s := range sites {
		killOf[s.reg][i/64] |= 1 << (i % 64)
	}
	in := make([][]uint64, n)
	for i := range in {
		in[i] = make([]uint64, words)
	}
	blockOut := make([][]uint64, len(g.Blocks))
	for b := range blockOut {
		blockOut[b] = make([]uint64, words)
	}
	equal := func(a, b []uint64) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for changed := true; changed; {
		changed = false
		for b := range g.Blocks {
			blk := g.Blocks[b]
			cur := make([]uint64, words)
			if b == 0 {
				for _, r := range []ebpf.Register{ebpf.R1, ebpf.R10} {
					id := siteIdx[[2]int{-1, int(r)}]
					cur[id/64] |= 1 << (id % 64)
				}
			}
			for _, pred := range blk.Preds {
				for w := range cur {
					cur[w] |= blockOut[pred][w]
				}
			}
			for i := blk.Start; i < blk.End; i++ {
				if !equal(in[i], cur) {
					copy(in[i], cur)
					changed = true
				}
				for m := prog.Instructions[i].DefMask(); m != 0; m &= m - 1 {
					r := bits.TrailingZeros16(m)
					for w := range cur {
						cur[w] &^= killOf[r][w]
					}
					id := siteIdx[[2]int{i, r}]
					cur[id/64] |= 1 << (id % 64)
				}
			}
			if !equal(blockOut[b], cur) {
				copy(blockOut[b], cur)
				changed = true
			}
		}
	}
	return &reachingInfo{sites: sites, in: in}
}

// refCarriedReg reports whether register r must be latched into stage
// s: some instruction at stage >= s uses r, and one of its reaching
// definitions lies at a stage < s (or is an architectural input).
func refCarriedReg(p *Pipeline, rd *reachingInfo, stageOf map[int]int, uses []uint16, r ebpf.Register, s int) bool {
	for i := range uses {
		if uses[i]&(1<<r) == 0 || stageOf[i] < s {
			continue
		}
		for siteID, site := range rd.sites {
			if site.reg != r || rd.in[i][siteID/64]&(1<<(siteID%64)) == 0 {
				continue
			}
			defStage := -1
			if site.index >= 0 {
				ds, ok := stageOf[site.index]
				if !ok {
					continue
				}
				defStage = ds
			}
			if defStage < s {
				return true
			}
		}
	}
	return false
}

// refCarryRegs is every stage's carried-register mask by the reference
// rule.
func refCarryRegs(p *Pipeline) []uint16 {
	stageOf := map[int]int{}
	for s := range p.Stages {
		for _, op := range p.Stages[s].Ops {
			stageOf[op.Index] = s
			for _, f := range op.FusedIdx {
				stageOf[f] = s
			}
		}
	}
	rd := refReachingDefs(p)
	uses := make([]uint16, len(p.Transformed.Instructions))
	for i := range stageOf {
		uses[i] = effectiveUses(p.info, i)
	}
	out := make([]uint16, len(p.Stages))
	for s := range p.Stages {
		for r := ebpf.R0; r <= ebpf.R10; r++ {
			if refCarriedReg(p, rd, stageOf, uses, r, s) {
				out[s] |= 1 << r
			}
		}
	}
	return out
}

// refStackBounds is the byte-by-byte scan stackBits.bounds replaces.
func refStackBounds(a stackBits) (lo, hi int) {
	first := true
	for b := 0; b < ebpf.StackSize; b++ {
		if a[b/64]&(1<<(b%64)) == 0 {
			continue
		}
		if first {
			lo, first = b, false
		}
		hi = b + 1
	}
	return lo, hi
}

func sameBools(a, b []bool) error {
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("instruction %d: %v, reference %v", i, a[i], b[i])
		}
	}
	return nil
}

// TestPassesMatchReferences runs the front end of Compile on every
// bundled app under every golden option set, and with the bounds checks
// kept, and holds each one-pass analysis to its reference: dead-code
// elimination (program and count), the wiring set, and every stage's
// carried registers.
func TestPassesMatchReferences(t *testing.T) {
	optsets := append(goldenOptions[:len(goldenOptions):len(goldenOptions)],
		struct {
			name string
			opts Options
		}{"DisableBoundsElision", Options{DisableBoundsElision: true}})
	for name, prog := range goldenPrograms(t) {
		for _, o := range optsets {
			label := name + "/" + o.name
			unrolled, err := cfg.Unroll(prog)
			if err != nil {
				t.Fatal(err)
			}
			a, err := analyze(unrolled)
			if err != nil {
				t.Fatal(err)
			}
			if !o.opts.DisableBoundsElision {
				next, n, err := elideBoundsChecks(a)
				if err != nil {
					t.Fatal(err)
				}
				if n > 0 {
					if a, err = analyze(next); err != nil {
						t.Fatal(err)
					}
				}
			}
			got, removed, err := deadCodeElim(a)
			if err != nil {
				t.Fatal(err)
			}
			want, wantRemoved, err := refDeadCodeElim(a)
			if err != nil {
				t.Fatal(err)
			}
			if removed != wantRemoved || fmt.Sprint(got.Prog.Instructions) != fmt.Sprint(want.Instructions) {
				t.Errorf("%s: DCE removed %d, reference %d (programs equal: %v)", label, removed, wantRemoved,
					fmt.Sprint(got.Prog.Instructions) == fmt.Sprint(want.Instructions))
			}
			if err := sameBools(wiringSet(got), refWiringSet(got)); err != nil {
				t.Errorf("%s: wiring: %v", label, err)
			}

			p, err := Compile(prog, o.opts)
			if err != nil {
				t.Fatal(err)
			}
			for s := range p.Stages {
				lo, hi := p.Stages[s].CarryStackLo, p.Stages[s].CarryStackHi
				if lo > hi {
					t.Errorf("%s: stage %d stack window [%d,%d)", label, s, lo, hi)
				}
			}
			if o.opts.DisablePruning {
				continue
			}
			for s, want := range refCarryRegs(p) {
				if got := p.Stages[s].CarryRegs; got != want {
					t.Errorf("%s: stage %d carries %#x, reference %#x", label, s, got, want)
				}
			}
		}
	}
}

// TestStackBoundsMatchesScan holds the word-wise bounds to the
// byte-by-byte scan on single bytes, word edges and spans.
func TestStackBoundsMatchesScan(t *testing.T) {
	cases := []stackBits{{}, fullStackBits()}
	for _, r := range [][2]int{{0, 1}, {63, 64}, {64, 65}, {511, 512}, {60, 70}, {100, 300}, {8, 504}} {
		var s stackBits
		setStackRange(&s, int64(r[0]-ebpf.StackSize), r[1]-r[0])
		cases = append(cases, s)
	}
	var sparse stackBits
	setStackRange(&sparse, -500, 1)
	setStackRange(&sparse, -3, 2)
	cases = append(cases, sparse)
	for _, c := range cases {
		lo, hi := c.bounds()
		wantLo, wantHi := refStackBounds(c)
		if lo != wantLo || hi != wantHi {
			t.Errorf("%x: bounds [%d,%d), scan [%d,%d)", c, lo, hi, wantLo, wantHi)
		}
	}
}
