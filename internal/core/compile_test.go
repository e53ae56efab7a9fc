package core

import (
	"testing"

	"ehdl/internal/asm"
	"ehdl/internal/ebpf"
)

// toySource is the running example of the paper (Listing 1/2) with the
// explicit packet bounds check the C compiler emits.
const toySource = `
map stats array key=4 value=8 entries=4

r2 = *(u32 *)(r1 + 4)      ; data_end
r1 = *(u32 *)(r1 + 0)      ; data
r3 = r1
r3 += 14
if r3 > r2 goto drop       ; bounds check, elided in hardware
r3 = 0
*(u32 *)(r10 - 4) = r3
r2 = *(u8 *)(r1 + 13)
r1 = *(u8 *)(r1 + 12)
r1 <<= 8
r1 |= r2
if r1 == 34525 goto ipv6
if r1 == 2054 goto arp
if r1 != 2048 goto lookup
r1 = 1
goto store
ipv6:
r1 = 2
goto store
arp:
r1 = 3
store:
*(u32 *)(r10 - 4) = r1
lookup:
r2 = r10
r2 += -4
r1 = map[stats] ll
call 1
r1 = r0
r0 = 3
if r1 == 0 goto out
r2 = 1
lock *(u64 *)(r1 + 0) += r2
out:
exit
drop:
r0 = 1
exit
`

func compileToy(t *testing.T, opts Options) *Pipeline {
	t.Helper()
	prog, err := asm.Assemble("toy", toySource)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompileToyShape(t *testing.T) {
	p := compileToy(t, Options{})

	if p.ElidedBoundsChecks != 1 {
		t.Errorf("elided bounds checks = %d, want 1", p.ElidedBoundsChecks)
	}
	// The data_end load, the pointer copies and the drop block must all
	// be gone.
	if p.RemovedInstructions == 0 {
		t.Error("dead-code elimination removed nothing")
	}
	for _, ins := range p.Transformed.Instructions {
		if ins.Class() == ebpf.ClassLDX && ins.Off == 4 && ins.MemSize() == ebpf.SizeW && ins.Src == ebpf.R1 {
			// Only flag actual ctx reads (the first instruction pattern).
		}
	}
	// Pipeline depth close to the paper's 20 stages (exact layout depends
	// on scheduling details; the order of magnitude must hold).
	if n := p.NumStages(); n < 10 || n > 30 {
		t.Errorf("stage count = %d, want roughly 20", n)
	}
	// ILP exists but is modest (the program is control-heavy): max 2-3.
	max, avg := p.ILP()
	if max < 2 {
		t.Errorf("max ILP = %d, want >= 2", max)
	}
	if avg < 1.0 || avg > 2.5 {
		t.Errorf("avg ILP = %.2f, out of plausible range", avg)
	}
	// One map block handling the stats array with an atomic primitive
	// and no flushing.
	if len(p.Maps) != 1 {
		t.Fatalf("map blocks = %d, want 1", len(p.Maps))
	}
	mb := p.Maps[0]
	if !mb.UsesAtomics {
		t.Error("stats map does not use the atomic primitive")
	}
	if mb.NeedsFlush {
		t.Error("stats map wrongly requires flushing")
	}
	if len(mb.ReadStages) != 1 {
		t.Errorf("read stages = %v, want one lookup", mb.ReadStages)
	}
}

func TestCompileToyPruning(t *testing.T) {
	p := compileToy(t, Options{})

	// Pruned state: most stages carry very few registers (the paper: 9
	// stages with 1 register, at most 3 anywhere), and the stack is only
	// 4 bytes where present.
	maxRegs, maxStack := 0, 0
	for i := range p.Stages {
		if n := p.Stages[i].CarryRegCount(); n > maxRegs {
			maxRegs = n
		}
		if n := p.Stages[i].CarryStackBytes(); n > maxStack {
			maxStack = n
		}
	}
	if maxRegs > 5 {
		t.Errorf("max carried registers = %d, want <= 5 after pruning", maxRegs)
	}
	if maxStack != 4 {
		t.Errorf("max carried stack bytes = %d, want 4 (the lookup key)", maxStack)
	}

	// Without pruning every stage carries the full state.
	u := compileToy(t, Options{DisablePruning: true})
	for i := range u.Stages {
		if u.Stages[i].CarryRegCount() != 11 || u.Stages[i].CarryStackBytes() != ebpf.StackSize {
			t.Fatalf("stage %d pruning-disabled carry = %d regs / %d bytes",
				i, u.Stages[i].CarryRegCount(), u.Stages[i].CarryStackBytes())
		}
	}
}

func TestCompileToyNoILP(t *testing.T) {
	base := compileToy(t, Options{})
	serial := compileToy(t, Options{DisableILP: true})
	if serial.NumStages() <= base.NumStages() {
		t.Errorf("ILP-disabled stages = %d, want more than %d", serial.NumStages(), base.NumStages())
	}
	max, _ := serial.ILP()
	// Fusion still packs pairs, so a stage may hold up to 2 instructions.
	if max > 2 {
		t.Errorf("ILP-disabled max per-stage instructions = %d", max)
	}
}

func TestCompileFusion(t *testing.T) {
	// "r6 = r7; r6 += 100" with a live r6 fuses into one three-operand
	// primitive (Figure 3); in the toy program the equivalent pair is
	// pure address wiring and vanishes instead.
	src := `
r7 = *(u32 *)(r1 + 8)
r6 = r7
r6 += 100
r0 = r6
exit
`
	prog, err := asm.Assemble("fuse", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(prog, Options{DisableBoundsElision: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.FusedPairs != 1 {
		t.Errorf("fused pairs = %d, want 1", p.FusedPairs)
	}
	nf, err := Compile(prog, Options{DisableFusion: true})
	if err != nil {
		t.Fatal(err)
	}
	if nf.FusedPairs != 0 {
		t.Error("fusion ran while disabled")
	}
	if nf.NumStages() <= p.NumStages() {
		t.Errorf("fusion did not shorten the pipeline: %d vs %d stages", p.NumStages(), nf.NumStages())
	}
}

func TestCompileKeepsBoundsCheckWhenDisabled(t *testing.T) {
	p := compileToy(t, Options{DisableBoundsElision: true})
	if p.ElidedBoundsChecks != 0 {
		t.Error("bounds elision ran while disabled")
	}
	// The comparison against data_end must survive.
	found := false
	for _, ins := range p.Transformed.Instructions {
		if ins.IsConditional() && ins.Source() == ebpf.SourceX {
			found = true
		}
	}
	if !found {
		t.Error("register-register bounds branch missing from the kept-checks pipeline")
	}
}

func TestCompileAtomicsLowering(t *testing.T) {
	p := compileToy(t, Options{DisableAtomics: true})
	mb := p.Maps[0]
	if mb.UsesAtomics {
		t.Error("atomics still in use while disabled")
	}
	if !mb.NeedsFlush {
		t.Error("lowered atomic does not require flushing")
	}
	if mb.K <= 0 {
		t.Errorf("flush depth K = %d, want > 0", mb.K)
	}
}

const flowSource = `
map conn hash key=4 value=8 entries=1024

r2 = *(u32 *)(r1 + 0)       ; data
r3 = *(u32 *)(r2 + 26)      ; src ip as the flow key
*(u32 *)(r10 - 4) = r3
r1 = map[conn] ll
r2 = r10
r2 += -4
call 1
if r0 == 0 goto miss
r0 = 2
exit
miss:
*(u64 *)(r10 - 16) = 1
r1 = map[conn] ll
r2 = r10
r2 += -4
r3 = r10
r3 += -16
r4 = 0
call 2
r0 = 2
exit
`

func TestCompileFlowStateHazards(t *testing.T) {
	prog, err := asm.Assemble("flow", flowSource)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Maps) != 1 {
		t.Fatalf("map blocks = %d, want 1", len(p.Maps))
	}
	mb := p.Maps[0]
	if !mb.NeedsFlush {
		t.Error("read-then-update flow map does not flush")
	}
	if mb.L <= 0 || mb.K < mb.L {
		t.Errorf("hazard geometry L=%d K=%d", mb.L, mb.K)
	}
	if mb.UsesAtomics {
		t.Error("flow map wrongly uses atomics")
	}
}

func TestCompileFramingNOPs(t *testing.T) {
	// A deep packet access at the very start of the program requires the
	// corresponding frame to already be inside the pipeline: the
	// compiler inserts synthetic NOP stages (Section 4.2).
	prog, err := asm.Assemble("deep", `
r2 = *(u32 *)(r1 + 0)
r0 = *(u8 *)(r2 + 400)
r0 &= 1
exit
`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.FramingNOPs == 0 {
		t.Fatal("no NOP stages inserted for a deep early access")
	}
	// Frame of byte 400 with 64-byte frames is index 6; the access must
	// sit at a stage >= its frame index.
	for s := range p.Stages {
		for _, op := range p.Stages[s].Ops {
			if op.Access != nil && op.Access.OffKnown && op.Access.Off == 400 {
				if s < 6 {
					t.Errorf("deep access at stage %d, before its frame arrives", s)
				}
			}
		}
	}
	// With 32-byte frames the NOP count roughly doubles.
	p32, err := Compile(prog, Options{FrameBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	if p32.FramingNOPs <= p.FramingNOPs {
		t.Errorf("32B-frame NOPs = %d, want more than %d", p32.FramingNOPs, p.FramingNOPs)
	}
}

func TestCompileTopologicalStageOrder(t *testing.T) {
	p := compileToy(t, Options{})
	// Property: an op's block successors must start at strictly later
	// stages than the op itself (forward-feeding pipeline).
	firstStage := map[int]int{}
	for _, b := range p.Blocks {
		firstStage[b.ID] = b.FirstStage
	}
	for s := range p.Stages {
		for _, op := range p.Stages[s].Ops {
			for _, succ := range []int{op.TakenBlock, op.FallBlock} {
				if succ < 0 {
					continue
				}
				if firstStage[succ] <= s {
					t.Errorf("stage %d enables block %d starting at stage %d (not forward)",
						s, succ, firstStage[succ])
				}
			}
		}
	}
}

func TestCompileSchedulerInvariants(t *testing.T) {
	p := compileToy(t, Options{})
	// No two ops in one stage may conflict (same-stage parallel
	// execution requires independence).
	for s := range p.Stages {
		ops := p.Stages[s].Ops
		for i := 0; i < len(ops); i++ {
			for j := i + 1; j < len(ops); j++ {
				for _, a := range append([]int{ops[i].Index}, ops[i].FusedIdx...) {
					for _, b := range append([]int{ops[j].Index}, ops[j].FusedIdx...) {
						lo, hi := a, b
						if lo > hi {
							lo, hi = hi, lo
						}
						if p.info.Conflicts(lo, hi) {
							t.Errorf("stage %d holds conflicting instructions %d and %d", s, a, b)
						}
					}
				}
			}
		}
	}
	// Every reachable instruction appears exactly once.
	seen := map[int]int{}
	for s := range p.Stages {
		for _, op := range p.Stages[s].Ops {
			seen[op.Index]++
			for _, f := range op.FusedIdx {
				seen[f]++
			}
		}
	}
	for idx, count := range seen {
		if count != 1 {
			t.Errorf("instruction %d scheduled %d times", idx, count)
		}
	}
	// Unscheduled instructions must be pure address plumbing: no side
	// effects, and every register they define consumed only by
	// statically addressed accesses.
	for idx, ins := range p.Transformed.Instructions {
		if seen[idx] > 0 {
			continue
		}
		if hasSideEffects(ins) {
			t.Errorf("side-effecting instruction %d (%s) was not scheduled", idx, ins)
		}
	}
	if len(seen) == len(p.Transformed.Instructions) {
		t.Error("no instruction became pure wiring; pointer-use elision is not working")
	}
}
