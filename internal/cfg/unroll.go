package cfg

import (
	"fmt"

	"ehdl/internal/ebpf"
)

// maxUnrollTrips bounds loop unrolling; a loop with more iterations is
// rejected as effectively unbounded for a hardware pipeline.
const maxUnrollTrips = 4096

// Unroll rewrites every bounded counted loop in prog into straight-line
// copies of its body, returning a program whose CFG is acyclic. The
// input is unchanged. Programs without back edges are returned as a
// copy.
//
// The supported shape is the one the eBPF verifier's bounded-loop rule
// produces: a back edge "if rC <op> bound goto header" whose counter rC
// is initialised to a constant before the header and changed only by
// constant additions inside the body. Early exits out of the body are
// preserved.
func Unroll(prog *ebpf.Program) (*ebpf.Program, error) {
	ip := toIndexed(prog)
	for rounds := 0; ; rounds++ {
		if rounds > 64 {
			return nil, fmt.Errorf("cfg: loop unrolling did not converge (nested or irreducible loops)")
		}
		cur, err := ip.emit(prog)
		if err != nil {
			return nil, err
		}
		g, err := Build(cur)
		if err != nil {
			return nil, err
		}
		edges := g.backEdges()
		if len(edges) == 0 {
			return cur, nil
		}
		// Unroll the innermost (last in program order) loop first.
		edge := edges[len(edges)-1]
		for _, e := range edges {
			if g.Blocks[e.From].End > g.Blocks[edge.From].End {
				edge = e
			}
		}
		if err := ip.unrollOne(cur, g, edge); err != nil {
			return nil, err
		}
	}
}

// indexed is a branch-target-resolved instruction stream: targets are
// instruction indices instead of slot deltas, which makes splicing
// copies trivial.
type indexed struct {
	ins    []ebpf.Instruction
	target []int // -1 when not a branch
}

func toIndexed(prog *ebpf.Program) *indexed {
	ip := &indexed{
		ins:    append([]ebpf.Instruction(nil), prog.Instructions...),
		target: make([]int, len(prog.Instructions)),
	}
	for i, ins := range prog.Instructions {
		ip.target[i] = -1
		if ins.IsBranch() {
			t, _ := prog.BranchTarget(i)
			ip.target[i] = t
		}
	}
	return ip
}

// emit converts back to slot-relative offsets.
func (ip *indexed) emit(orig *ebpf.Program) (*ebpf.Program, error) {
	out := &ebpf.Program{
		Name:         orig.Name,
		Maps:         orig.Maps,
		Instructions: append([]ebpf.Instruction(nil), ip.ins...),
	}
	offs := out.SlotOffsets()
	for i := range out.Instructions {
		if ip.target[i] < 0 {
			continue
		}
		delta := offs[ip.target[i]] - (offs[i] + out.Instructions[i].Slots())
		if delta < -(1<<15) || delta >= 1<<15 {
			return nil, fmt.Errorf("cfg: unrolled branch at %d out of 16-bit range", i)
		}
		out.Instructions[i].Off = int16(delta)
	}
	return out, nil
}

// unrollOne expands the loop closed by edge into tripCount copies.
func (ip *indexed) unrollOne(prog *ebpf.Program, g *Graph, edge backEdge) error {
	headStart := g.Blocks[edge.To].Start
	tailEnd := g.Blocks[edge.From].End // one past the back-edge branch
	branchIdx := tailEnd - 1
	branch := ip.ins[branchIdx]
	if !branch.IsBranch() || ip.target[branchIdx] != headStart {
		return fmt.Errorf("cfg: back edge of blocks %d->%d is not a trailing branch", edge.From, edge.To)
	}

	// The loop must be a contiguous region only entered at the header.
	for i := range ip.ins {
		t := ip.target[i]
		if t < 0 {
			continue
		}
		inRegion := i >= headStart && i < tailEnd
		targetsInside := t > headStart && t < tailEnd
		if !inRegion && targetsInside {
			return fmt.Errorf("cfg: loop at [%d,%d) has a side entry from %d", headStart, tailEnd, i)
		}
		if inRegion && t == headStart && i != branchIdx {
			return fmt.Errorf("cfg: loop at [%d,%d) has multiple back edges", headStart, tailEnd)
		}
	}

	trips, err := countTrips(ip, headStart, tailEnd, branchIdx)
	if err != nil {
		return err
	}

	// Build the unrolled region: trips copies of [headStart, tailEnd).
	bodyLen := tailEnd - headStart
	growth := (trips - 1) * bodyLen

	// Remap targets in one pass over a freshly assembled stream.
	newIns := make([]ebpf.Instruction, 0, len(ip.ins)+growth)
	newTgt := make([]int, 0, len(ip.ins)+growth)

	mapOutside := func(t int) int {
		if t < 0 {
			return t
		}
		if t >= tailEnd {
			return t + growth
		}
		return t // before the loop, or the header itself
	}

	// Prefix.
	for i := 0; i < headStart; i++ {
		newIns = append(newIns, ip.ins[i])
		newTgt = append(newTgt, mapOutside(ip.target[i]))
	}
	// Copies.
	for c := 0; c < trips; c++ {
		base := headStart + c*bodyLen
		for i := headStart; i < tailEnd; i++ {
			ins := ip.ins[i]
			t := ip.target[i]
			switch {
			case i == branchIdx:
				if c < trips-1 {
					// Continue into the next copy.
					t = base + bodyLen
				} else {
					// Loop exhausted: fall through (a branch to the next
					// instruction is a no-op either way).
					t = base + bodyLen
				}
			case t >= headStart && t < tailEnd:
				t = base + (t - headStart) // intra-body forward branch
			default:
				t = mapOutside(t)
			}
			newIns = append(newIns, ins)
			newTgt = append(newTgt, t)
		}
	}
	// Suffix.
	for i := tailEnd; i < len(ip.ins); i++ {
		newIns = append(newIns, ip.ins[i])
		newTgt = append(newTgt, mapOutside(ip.target[i]))
	}

	ip.ins, ip.target = newIns, newTgt
	return nil
}

// countTrips determines the exact iteration count of a counted loop.
func countTrips(ip *indexed, headStart, tailEnd, branchIdx int) (int, error) {
	branch := ip.ins[branchIdx]
	if branch.JumpOp() == ebpf.JumpAlways {
		return 0, fmt.Errorf("cfg: unconditional back edge at %d is an unbounded loop", branchIdx)
	}
	if branch.Source() != ebpf.SourceK {
		return 0, fmt.Errorf("cfg: back-edge condition at %d must compare against a constant", branchIdx)
	}
	counter := branch.Dst
	bound := uint64(int64(branch.Imm))

	// Total constant delta applied to the counter per iteration.
	var delta int64
	for i := headStart; i < tailEnd; i++ {
		ins := ip.ins[i]
		defsCounter := false
		for _, d := range ins.Defs() {
			if d == counter {
				defsCounter = true
			}
		}
		if !defsCounter {
			continue
		}
		if !ins.Class().IsALU() || ins.Source() != ebpf.SourceK {
			return 0, fmt.Errorf("cfg: loop counter r%d is not updated by a constant at %d", counter, i)
		}
		switch ins.ALUOp() {
		case ebpf.ALUAdd:
			delta += int64(ins.Imm)
		case ebpf.ALUSub:
			delta -= int64(ins.Imm)
		default:
			return 0, fmt.Errorf("cfg: loop counter r%d mutated by %s at %d", counter, ins.ALUOp(), i)
		}
	}
	if delta == 0 {
		return 0, fmt.Errorf("cfg: loop counter r%d never advances", counter)
	}

	// Initial value: nearest constant mov to the counter before the header.
	init, found := int64(0), false
	for i := headStart - 1; i >= 0; i-- {
		ins := ip.ins[i]
		for _, d := range ins.Defs() {
			if d != counter {
				continue
			}
			if ins.Class().IsALU() && ins.ALUOp() == ebpf.ALUMov && ins.Source() == ebpf.SourceK {
				init, found = int64(ins.Imm), true
			} else if ins.IsLoadImm64() && !ins.IsLoadOfMapFD() {
				init, found = ins.Imm64, true
			} else {
				return 0, fmt.Errorf("cfg: loop counter r%d has a non-constant initialisation at %d", counter, i)
			}
		}
		if found {
			break
		}
	}
	if !found {
		return 0, fmt.Errorf("cfg: loop counter r%d has no constant initialisation", counter)
	}

	// Simulate iterations.
	v := uint64(init)
	is32 := branch.Class() == ebpf.ClassJMP32
	trips := 0
	for {
		trips++
		if trips > maxUnrollTrips {
			return 0, fmt.Errorf("cfg: loop exceeds %d iterations", maxUnrollTrips)
		}
		v = uint64(int64(v) + delta)
		taken, err := branch.JumpOp().Compare(cmpVal(v, is32), cmpVal(bound, is32), is32)
		if err != nil {
			return 0, err
		}
		if !taken {
			return trips, nil
		}
	}
}

func cmpVal(v uint64, is32 bool) uint64 {
	if is32 {
		return uint64(uint32(v))
	}
	return v
}
