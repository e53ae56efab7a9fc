package ddg

import (
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/asm"
	"ehdl/internal/cfg"
	"ehdl/internal/ebpf"
)

func analyze(t *testing.T, src string) *Info {
	t.Helper()
	prog, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	info, err := Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

const toySource = `
map stats array key=4 value=8 entries=4

r2 = *(u32 *)(r1 + 4)
r1 = *(u32 *)(r1 + 0)
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
`

func TestLabelingToyProgram(t *testing.T) {
	info := analyze(t, toySource)

	// Instruction 0/1 read the context.
	for _, i := range []int{0, 1} {
		acc := info.Accesses[i]
		if acc == nil || acc.Area != AreaCtx {
			t.Errorf("instruction %d: area = %v, want ctx", i, acc)
		}
	}
	// Instruction 3 stores to the stack at R10-4.
	if acc := info.Accesses[3]; acc == nil || acc.Area != AreaStack || !acc.OffKnown || acc.Off != -4 || !acc.Write {
		t.Errorf("instruction 3 access = %+v, want stack write at -4", acc)
	}
	// Instructions 4/5 load from the packet at offsets 13 and 12.
	if acc := info.Accesses[4]; acc == nil || acc.Area != AreaPacket || acc.Off != 13 || !acc.Read {
		t.Errorf("instruction 4 access = %+v, want packet read at 13", acc)
	}
	if acc := info.Accesses[5]; acc == nil || acc.Area != AreaPacket || acc.Off != 12 {
		t.Errorf("instruction 5 access = %+v, want packet read at 12", acc)
	}
	// The call is labeled with map 0.
	callIdx := -1
	for i, ins := range info.Prog.Instructions {
		if ins.IsCall() {
			callIdx = i
		}
	}
	if callIdx < 0 || info.CallMap[callIdx] != 0 {
		t.Errorf("call map id = %d at %d, want 0", info.CallMap[callIdx], callIdx)
	}
	// The atomic add goes to map memory via the lookup result.
	atomicIdx := -1
	for i, ins := range info.Prog.Instructions {
		if ins.IsAtomic() {
			atomicIdx = i
		}
	}
	acc := info.Accesses[atomicIdx]
	if acc == nil || acc.Area != AreaMap || acc.MapID != 0 || !acc.Atomic || !acc.Write || !acc.Read {
		t.Errorf("atomic access = %+v, want atomic rmw on map 0", acc)
	}
}

func TestLabelingDerivedPointers(t *testing.T) {
	// r9 derived from r10 (the paper's "r9 = r10 + 10" style example,
	// expressed as mov + add), then used as a stack base.
	info := analyze(t, `
r9 = r10
r9 += -16
*(u64 *)(r9 + 8) = 7
r0 = 0
exit
`)
	acc := info.Accesses[2]
	if acc == nil || acc.Area != AreaStack || !acc.OffKnown || acc.Off != -8 {
		t.Errorf("derived stack access = %+v, want stack at -8", acc)
	}
}

func TestLabelingPacketVariableOffset(t *testing.T) {
	// A packet access with a run-time offset keeps its area but loses
	// the constant offset.
	info := analyze(t, `
r2 = *(u32 *)(r1 + 0)
r3 = *(u8 *)(r2 + 0)
r2 += r3
r0 = *(u8 *)(r2 + 1)
r0 = 0
exit
`)
	acc := info.Accesses[3]
	if acc == nil || acc.Area != AreaPacket || acc.OffKnown {
		t.Errorf("variable packet access = %+v, want packet with unknown offset", acc)
	}
}

func TestLabelingRejectsUntrackedPointer(t *testing.T) {
	prog, err := asm.Assemble("bad", `
r2 = 1234
r0 = *(u32 *)(r2 + 0)
exit
`)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(g); err == nil {
		t.Fatal("Analyze accepted a dereference of a scalar")
	}
}

func TestProvenanceJoinAtMerge(t *testing.T) {
	// r2 is a packet pointer on both paths but with different offsets:
	// the join keeps the area and drops the offset.
	info := analyze(t, `
r2 = *(u32 *)(r1 + 0)
if r2 == 0 goto other
r2 += 4
goto join
other:
r2 += 8
join:
r0 = *(u8 *)(r2 + 0)
r0 = 0
exit
`)
	var loadIdx int
	for i, ins := range info.Prog.Instructions {
		if ins.Class() == ebpf.ClassLDX && ins.MemSize() == ebpf.SizeB {
			loadIdx = i
		}
	}
	acc := info.Accesses[loadIdx]
	if acc == nil || acc.Area != AreaPacket {
		t.Fatalf("merged access = %+v, want packet", acc)
	}
	if acc.OffKnown {
		t.Error("merged access kept a constant offset across conflicting paths")
	}
}

func TestLivenessRegisterPruning(t *testing.T) {
	// From Section 4.3: r2's value is dead between its last use and its
	// re-definition.
	info := analyze(t, `
r2 = *(u32 *)(r1 + 4)
r3 = r2
r2 = 7
r0 = r2
r0 += r3
exit
`)
	liveOut, _ := info.Liveness(info.UseMask, nil)
	// After instruction 1 (r3 = r2), r2 is dead (it is re-assigned at 2).
	if liveOut[1]&(1<<ebpf.R2) != 0 {
		t.Error("r2 live after its last use")
	}
	// r3 stays live until instruction 4.
	if liveOut[2]&(1<<ebpf.R3) == 0 {
		t.Error("r3 dead while still needed")
	}
	// R0 is live into the exit.
	last := len(info.Prog.Instructions) - 1
	if liveOut[last-1]&(1<<ebpf.R0) == 0 {
		t.Error("r0 dead at exit")
	}
}

// TestLivenessMarksChainsDead: a definition that feeds only removable
// dead instructions is itself dead, in the same pass, and a dead
// instruction kills nothing.
func TestLivenessMarksChainsDead(t *testing.T) {
	info := analyze(t, `
r2 = 1
r3 = r2
r3 += 4
r0 = 2
if r0 == 2 goto out
r4 = r0
out:
exit
`)
	liveOut, dead := info.Liveness(info.UseMask, func(i int) bool { return info.Prog.Instructions[i].Class().IsALU() })
	want := []bool{true, true, true, false, false, true, false}
	for i := range want {
		if dead[i] != want[i] {
			t.Errorf("instruction %d (%s): dead = %v, want %v", i, info.Prog.Instructions[i], dead[i], want[i])
		}
	}
	if liveOut[3] != 1<<ebpf.R0 {
		t.Errorf("live after r0 = 2: %#x, want r0", liveOut[3])
	}
}

func TestConflicts(t *testing.T) {
	info := analyze(t, `
r2 = *(u32 *)(r1 + 0)
r3 = *(u8 *)(r2 + 12)
r4 = *(u8 *)(r2 + 13)
r3 <<= 8
*(u32 *)(r10 - 4) = r3
*(u32 *)(r10 - 8) = r4
r0 = 0
exit
`)
	cases := []struct {
		i, j int
		want bool
		why  string
	}{
		{0, 1, true, "RAW on r2"},
		{1, 2, false, "independent packet reads"},
		{1, 3, true, "RAW then WAW on r3"},
		{4, 5, false, "disjoint stack stores"},
		{2, 4, false, "store does not clash with unrelated load"},
		{3, 4, true, "r3 feeds the store"},
	}
	for _, c := range cases {
		if got := info.Conflicts(c.i, c.j); got != c.want {
			t.Errorf("Conflicts(%d,%d) = %v, want %v (%s)", c.i, c.j, got, c.want, c.why)
		}
	}
}

func TestConflictsOverlappingStack(t *testing.T) {
	info := analyze(t, `
*(u32 *)(r10 - 4) = 1
*(u16 *)(r10 - 2) = 2
*(u32 *)(r10 - 8) = 3
r0 = 0
exit
`)
	if !info.Conflicts(0, 1) {
		t.Error("overlapping stack stores did not conflict")
	}
	if info.Conflicts(0, 2) {
		t.Error("disjoint stack stores conflicted")
	}
}

func TestCallIsMemoryBarrier(t *testing.T) {
	info := analyze(t, `
map m hash key=4 value=8 entries=8

*(u32 *)(r10 - 4) = 7
r1 = map[m] ll
r2 = r10
r2 += -4
call 1
r0 = 0
exit
`)
	callIdx := 4
	if !info.Prog.Instructions[callIdx].IsCall() {
		t.Fatalf("instruction %d is not the call", callIdx)
	}
	if !info.Conflicts(0, callIdx) {
		t.Error("stack store did not order against the map call")
	}
}

func TestHelperUsesRefinement(t *testing.T) {
	info := analyze(t, toySource)
	for i, ins := range info.Prog.Instructions {
		if !ins.IsCall() {
			continue
		}
		if uses := info.UseMask(i); uses != 1<<ebpf.R1|1<<ebpf.R2 {
			t.Errorf("lookup call uses %#x, want r1 and r2", uses)
		}
	}
}

// TestProvenanceSkipsUnreachablePredecessors: a block that no path
// reaches falls into a reachable merge. Its all-scalar state must not
// join in, or the packet pointer would turn unknown and the load
// untracked.
func TestProvenanceSkipsUnreachablePredecessors(t *testing.T) {
	info := analyze(t, `
r2 = *(u32 *)(r1 + 0)
goto join
r2 = 5
join:
r0 = *(u8 *)(r2 + 0)
r0 = 2
exit
`)
	if acc := info.Accesses[3]; acc == nil || acc.Area != AreaPacket || !acc.OffKnown || acc.Off != 0 {
		t.Errorf("merged access = %+v, want packet at 0", acc)
	}
}

// refProvenance is the work-list fixed point the topological sweep
// replaced: a block is queued again whenever its entry state changes.
func refProvenance(g *cfg.Graph, mapIDs []int) []regState {
	in := make([]regState, len(g.Prog.Instructions))
	blockIn := make([]regState, len(g.Blocks))
	seen := make([]bool, len(g.Blocks))
	blockIn[0], seen[0] = entryState(), true
	for work := []int{0}; len(work) > 0; {
		b := work[0]
		work = work[1:]
		st := blockIn[b]
		for i := g.Blocks[b].Start; i < g.Blocks[b].End; i++ {
			in[i] = st
			st = transfer(st, g.Prog.Instructions[i], mapIDs[i])
		}
		for _, s := range g.Blocks[b].Succs {
			next := st
			if seen[s] {
				next = blockIn[s].join(st)
			}
			if !seen[s] || next != blockIn[s] {
				blockIn[s], seen[s] = next, true
				work = append(work, s)
			}
		}
	}
	return in
}

// TestSweepMatchesWorklist holds the one-sweep provenance analysis to
// the work-list fixed point on every bundled app.
func TestSweepMatchesWorklist(t *testing.T) {
	for _, app := range append(apps.All(), apps.Toy(), apps.LeakyBucket(), apps.LoadBalancer()) {
		prog, err := app.Program()
		if err != nil {
			t.Fatal(err)
		}
		unrolled, err := cfg.Unroll(prog)
		if err != nil {
			t.Fatal(err)
		}
		g, err := cfg.Build(unrolled)
		if err != nil {
			t.Fatal(err)
		}
		info, err := Analyze(g)
		if err != nil {
			t.Fatal(err)
		}
		got := analyzeProvenance(g, info.order, info.MapIDOfLDDW)
		want := refProvenance(g, info.MapIDOfLDDW)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: instruction %d (%s): sweep %+v, work-list %+v", app.Name, i, unrolled.Instructions[i], got[i], want[i])
				break
			}
		}
	}
}
