package cfg

import (
	"testing"

	"ehdl/internal/asm"
	"ehdl/internal/ebpf"
	"ehdl/internal/vm"
)

func mustAssemble(t *testing.T, src string) *ebpf.Program {
	t.Helper()
	prog, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

const diamondSrc = `
r0 = 0
if r1 == 1 goto then
r0 = 10
goto join
then:
r0 = 20
join:
r0 += 1
exit
`

func TestBuildDiamond(t *testing.T) {
	g, err := Build(mustAssemble(t, diamondSrc))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4", len(g.Blocks))
	}
	entry := g.Blocks[0]
	if len(entry.Succs) != 2 {
		t.Fatalf("entry successors = %v", entry.Succs)
	}
	join := g.Blocks[g.BlockOf(6)]
	if len(join.Preds) != 2 {
		t.Fatalf("join predecessors = %v", join.Preds)
	}
	if !g.isAcyclic() {
		t.Error("diamond reported cyclic")
	}
}

func TestTopologicalBlocks(t *testing.T) {
	g, err := Build(mustAssemble(t, diamondSrc))
	if err != nil {
		t.Fatal(err)
	}
	order, err := g.TopologicalBlocks()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[int]int)
	for i, b := range order {
		pos[b] = i
	}
	for _, b := range order {
		for _, s := range g.Blocks[b].Succs {
			if pos[s] <= pos[b] {
				t.Errorf("edge %d->%d violates topological order %v", b, s, order)
			}
		}
	}
}

const loopSrc = `
r0 = 0
r6 = 0
loop:
r0 += 2
r6 += 1
if r6 != 5 goto loop
exit
`

func TestBackEdges(t *testing.T) {
	g, err := Build(mustAssemble(t, loopSrc))
	if err != nil {
		t.Fatal(err)
	}
	edges := g.backEdges()
	if len(edges) != 1 {
		t.Fatalf("back edges = %v, want one", edges)
	}
	if g.isAcyclic() {
		t.Error("loop reported acyclic")
	}
	if _, err := g.TopologicalBlocks(); err == nil {
		t.Error("TopologicalBlocks accepted a cyclic graph")
	}
}

// runProgram executes a program on a 64-byte packet and returns R0.
func runProgram(t *testing.T, prog *ebpf.Program) uint64 {
	t.Helper()
	env, err := vm.NewEnv(prog)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(vm.NewPacket(make([]byte, 64)))
	if err != nil {
		t.Fatal(err)
	}
	return uint64(res.Action)
}

func TestUnrollCountedLoop(t *testing.T) {
	prog := mustAssemble(t, loopSrc)
	want := runProgram(t, prog)

	unrolled, err := Unroll(prog)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(unrolled)
	if err != nil {
		t.Fatal(err)
	}
	if !g.isAcyclic() {
		t.Fatal("unrolled program still has back edges")
	}
	if got := runProgram(t, unrolled); got != want {
		t.Errorf("unrolled result = %d, want %d", got, want)
	}
	if len(unrolled.Instructions) <= len(prog.Instructions) {
		t.Error("unrolling did not expand the program")
	}
}

func TestUnrollDowncountLoop(t *testing.T) {
	prog := mustAssemble(t, `
r0 = 0
r6 = 8
loop:
r0 += r6
r6 -= 2
if r6 s> 0 goto loop
exit
`)
	want := runProgram(t, prog) // 8+6+4+2 = 20
	if want != 20 {
		t.Fatalf("reference run = %d, want 20", want)
	}
	unrolled, err := Unroll(prog)
	if err != nil {
		t.Fatal(err)
	}
	if got := runProgram(t, unrolled); got != want {
		t.Errorf("unrolled result = %d, want %d", got, want)
	}
}

func TestUnrollPreservesEarlyExit(t *testing.T) {
	prog := mustAssemble(t, `
r0 = 0
r6 = 0
r7 = 3
loop:
r0 += 1
if r0 == r7 goto out    ; data-dependent early exit
r6 += 1
if r6 != 10 goto loop
out:
exit
`)
	want := runProgram(t, prog) // exits when r0 reaches 3
	if want != 3 {
		t.Fatalf("reference run = %d, want 3", want)
	}
	unrolled, err := Unroll(prog)
	if err != nil {
		t.Fatal(err)
	}
	if got := runProgram(t, unrolled); got != want {
		t.Errorf("unrolled result = %d, want %d", got, want)
	}
}

func TestUnrollNoLoopIsIdentity(t *testing.T) {
	prog := mustAssemble(t, diamondSrc)
	out, err := Unroll(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Instructions) != len(prog.Instructions) {
		t.Error("loop-free program changed size under Unroll")
	}
}

func TestUnrollRejectsUnbounded(t *testing.T) {
	cases := []string{
		// Unconditional back edge.
		"r0 = 0\nloop:\nr0 += 1\ngoto loop\nexit",
		// Counter never advances.
		"r0 = 0\nr6 = 0\nloop:\nr0 += 1\nif r6 != 5 goto loop\nexit",
		// Counter from a register (no constant init).
		"r0 = 0\nr6 = r1\nloop:\nr6 += 1\nif r6 != 5 goto loop\nexit",
		// Register-bound condition.
		"r0 = 0\nr6 = 0\nloop:\nr6 += 1\nif r6 != r1 goto loop\nexit",
	}
	for _, src := range cases {
		prog := mustAssemble(t, src)
		if _, err := Unroll(prog); err == nil {
			t.Errorf("Unroll accepted unbounded loop:\n%s", src)
		}
	}
}

func TestUnrollNestedLoops(t *testing.T) {
	prog := mustAssemble(t, `
r0 = 0
r6 = 0
outer:
r7 = 0
inner:
r0 += 1
r7 += 1
if r7 != 3 goto inner
r6 += 1
if r6 != 4 goto outer
exit
`)
	want := runProgram(t, prog) // 3*4 = 12
	if want != 12 {
		t.Fatalf("reference run = %d, want 12", want)
	}
	unrolled, err := Unroll(prog)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := Build(unrolled)
	if !g.isAcyclic() {
		t.Fatal("nested unroll left back edges")
	}
	if got := runProgram(t, unrolled); got != want {
		t.Errorf("unrolled result = %d, want %d", got, want)
	}
}
