package core

import (
	"testing"

	"ehdl/internal/asm"
	"ehdl/internal/ddg"
	"ehdl/internal/ebpf"
)

func analyzeSrc(t *testing.T, src string) *ddg.Info {
	t.Helper()
	prog, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestRewriteDropsAndRetargets(t *testing.T) {
	prog, err := asm.Assemble("r", `
r0 = 0
r1 = 1
if r0 == 0 goto target
r2 = 2
target:
r0 = 3
exit
`)
	if err != nil {
		t.Fatal(err)
	}
	// Drop instruction 1 (r1 = 1): the branch at (old) index 2 must
	// still reach "target".
	out, err := rewrite(prog, map[int]bool{1: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Instructions) != len(prog.Instructions)-1 {
		t.Fatalf("rewrite kept %d instructions", len(out.Instructions))
	}
	target, ok := out.BranchTarget(1)
	if !ok || out.Instructions[target].String() != "r0 = 3" {
		t.Fatalf("branch retargeted to %d (%s)", target, out.Instructions[target])
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRewriteDroppedBranchTarget(t *testing.T) {
	prog, err := asm.Assemble("r", `
r0 = 0
if r0 == 0 goto target
r1 = 1
target:
r2 = 2
exit
`)
	if err != nil {
		t.Fatal(err)
	}
	// Dropping the target instruction moves the branch to the next
	// surviving one.
	out, err := rewrite(prog, map[int]bool{3: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	target, ok := out.BranchTarget(1)
	if !ok || !out.Instructions[target].IsExit() {
		t.Fatalf("branch lands on %v", out.Instructions[target])
	}
}

func TestRewriteReplaceWithJa(t *testing.T) {
	prog, err := asm.Assemble("r", `
r0 = 0
if r0 == 7 goto target
r1 = 1
target:
exit
`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := rewrite(prog, nil, map[int]bool{1: true})
	if err != nil {
		t.Fatal(err)
	}
	ins := out.Instructions[1]
	if !ins.IsBranch() || ins.IsConditional() {
		t.Fatalf("instruction 1 = %v, want an unconditional jump", ins)
	}
}

// The four orientations of a packet bounds check must all be elided.
func TestElisionOrientations(t *testing.T) {
	cases := []struct {
		name string
		cond string // comparison line; r3 = pkt+14, r2 = data_end
		oob  string // where the OOB verdict lives
	}{
		{"pkt > end, taken drop", "if r3 > r2 goto drop", "taken"},
		{"pkt >= end, taken drop", "if r3 >= r2 goto drop", "taken"},
		{"end < pkt, taken drop", "if r2 < r3 goto drop", "taken"},
		{"end <= pkt, taken drop", "if r2 <= r3 goto drop", "taken"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := `
r2 = *(u32 *)(r1 + 4)
r1 = *(u32 *)(r1 + 0)
r3 = r1
r3 += 14
` + c.cond + `
r0 = *(u8 *)(r1 + 0)
exit
drop:
r0 = 1
exit
`
			a := analyzeSrc(t, src)
			_, n, err := elideBoundsChecks(a)
			if err != nil {
				t.Fatal(err)
			}
			if n != 1 {
				t.Errorf("elided %d checks, want 1", n)
			}
		})
	}
}

func TestElisionKeepsNonTrivialDropPaths(t *testing.T) {
	// The failing side does real work (a counter bump): the check must
	// stay.
	a := analyzeSrc(t, `
map m array key=4 value=8 entries=1

r2 = *(u32 *)(r1 + 4)
r1 = *(u32 *)(r1 + 0)
r3 = r1
r3 += 14
if r3 > r2 goto drop
r0 = *(u8 *)(r1 + 0)
exit
drop:
*(u32 *)(r10 - 4) = 0
r1 = map[m] ll
r2 = r10
r2 += -4
call 1
r0 = 1
exit
`)
	_, n, err := elideBoundsChecks(a)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("elided %d checks from a side-effecting drop path", n)
	}
}

func TestElisionIgnoresOrdinaryComparisons(t *testing.T) {
	a := analyzeSrc(t, `
r2 = *(u32 *)(r1 + 0)
r3 = *(u32 *)(r2 + 0)
r4 = *(u32 *)(r2 + 4)
if r3 > r4 goto other
r0 = 2
exit
other:
r0 = 1
exit
`)
	_, n, err := elideBoundsChecks(a)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("elided %d scalar comparisons", n)
	}
}

func TestWiringDissolvesAddressChains(t *testing.T) {
	a := analyzeSrc(t, `
map m hash key=4 value=8 entries=16

r2 = *(u32 *)(r1 + 0)
r3 = *(u32 *)(r2 + 8)
*(u32 *)(r10 - 4) = r3
r1 = map[m] ll
r2 = r10
r2 += -4
call 1
r0 = 2
exit
`)
	wiring := wiringSet(a)
	wantWired := map[string]bool{
		"r2 = *(u32 *)(r1 + 0)": true, // packet base: all uses elided
		"r2 = r10":              true, // key pointer chain
		"r2 += -4":              true,
	}
	for i, ins := range a.Prog.Instructions {
		if wantWired[ins.String()] && !wiring[i] {
			t.Errorf("instruction %d (%s) not classified as wiring", i, ins)
		}
	}
	// The value-producing load must stay.
	for i, ins := range a.Prog.Instructions {
		if ins.String() == "r3 = *(u32 *)(r2 + 8)" && wiring[i] {
			t.Errorf("data load wrongly classified as wiring")
		}
	}
}

func TestWiringKeepsDynamicBases(t *testing.T) {
	// A variable packet offset keeps its base register and the chain
	// feeding it.
	a := analyzeSrc(t, `
r2 = *(u32 *)(r1 + 0)
r3 = *(u8 *)(r2 + 0)
r2 += r3
r0 = *(u8 *)(r2 + 1)
exit
`)
	wiring := wiringSet(a)
	for i, ins := range a.Prog.Instructions {
		if ins.String() == "r2 = *(u32 *)(r1 + 0)" && wiring[i] {
			t.Error("dynamic access base wrongly dissolved")
		}
	}
}

func TestDCERemovesUnreachableBlocks(t *testing.T) {
	prog, err := asm.Assemble("dead", `
r0 = 2
goto out
r5 = 99
r5 += 1
out:
exit
`)
	if err != nil {
		t.Fatal(err)
	}
	a, err := analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	out, removed, err := deadCodeElim(a)
	if err != nil {
		t.Fatal(err)
	}
	if removed < 2 {
		t.Errorf("removed %d instructions, want the unreachable block", removed)
	}
	for _, ins := range out.Prog.Instructions {
		if ins.Class().IsALU() && ins.Imm == 99 {
			t.Error("unreachable instruction survived DCE")
		}
	}
}

func TestCompileRejectsUntrackedPointers(t *testing.T) {
	prog, err := asm.Assemble("bad", `
r2 = 4096
r0 = *(u32 *)(r2 + 0)
exit
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(prog, Options{}); err == nil {
		t.Fatal("compiled a dereference of an arbitrary scalar")
	}
}

func TestOptionsValidation(t *testing.T) {
	prog, err := asm.Assemble("p", "r0 = 2\nexit")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(prog, Options{FrameBytes: 8}); err == nil {
		t.Error("accepted an 8-byte frame")
	}
	if _, err := Compile(prog, Options{FrameBytes: 32}); err != nil {
		t.Errorf("rejected a 32-byte frame: %v", err)
	}
}

func TestHelperWaitStagesFollowDepth(t *testing.T) {
	pl := compileToy(t, Options{})
	waits := 0
	for i := range pl.Stages {
		if pl.Stages[i].Kind == StageHelperWait {
			waits++
		}
	}
	// One lookup with PipelineDepth 2 -> one interior wait stage.
	if waits != ebpf.HelperMapLookupElem.PipelineDepth()-1 {
		t.Errorf("helper wait stages = %d", waits)
	}
}
