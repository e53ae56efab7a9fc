package core

import (
	"fmt"

	"ehdl/internal/cfg"
	"ehdl/internal/ddg"
	"ehdl/internal/ebpf"
)

// analyze builds the control-flow graph of prog and runs the data-flow
// analyses the transform passes read.
func analyze(prog *ebpf.Program) (*ddg.Info, error) {
	g, err := cfg.Build(prog)
	if err != nil {
		return nil, err
	}
	return ddg.Analyze(g)
}

// rewrite removes the instructions in drop (a set of indices) and
// redirects branches whose target was removed to the next surviving
// instruction. replaceWithJa maps instruction indices to "rewrite this
// conditional branch as an unconditional jump to its taken target".
func rewrite(prog *ebpf.Program, drop map[int]bool, replaceWithJa map[int]bool) (*ebpf.Program, error) {
	n := len(prog.Instructions)
	// Resolve all branch targets in index space first.
	targets := make([]int, n)
	for i, ins := range prog.Instructions {
		targets[i] = -1
		if ins.IsBranch() {
			t, ok := prog.BranchTarget(i)
			if !ok {
				return nil, fmt.Errorf("core: unresolvable branch at %d", i)
			}
			targets[i] = t
		}
	}
	// newIndex[i] = position of instruction i in the output, or the
	// position of the next surviving instruction when i is dropped.
	newIndex := make([]int, n+1)
	kept := 0
	for i := 0; i < n; i++ {
		newIndex[i] = kept
		if !drop[i] {
			kept++
		}
	}
	newIndex[n] = kept

	out := &ebpf.Program{Name: prog.Name, Maps: prog.Maps}
	outTargets := make([]int, 0, kept)
	for i, ins := range prog.Instructions {
		if drop[i] {
			continue
		}
		t := -1
		if targets[i] >= 0 {
			t = newIndex[targets[i]]
		}
		if replaceWithJa[i] {
			ins = ebpf.Ja(0)
		}
		out.Instructions = append(out.Instructions, ins)
		outTargets = append(outTargets, t)
	}
	// Re-emit slot offsets.
	offs := out.SlotOffsets()
	for i := range out.Instructions {
		if outTargets[i] < 0 {
			continue
		}
		delta := offs[outTargets[i]] - (offs[i] + out.Instructions[i].Slots())
		if delta < -(1<<15) || delta >= 1<<15 {
			return nil, fmt.Errorf("core: rewritten branch at %d out of range", i)
		}
		out.Instructions[i].Off = int16(delta)
	}
	return out, nil
}

// isTrivialVerdictBlock reports whether block b only sets a constant
// verdict and exits — the shape of the drop path of a packet bounds
// check.
func isTrivialVerdictBlock(info *ddg.Info, b int) bool {
	blk := info.Graph.Blocks[b]
	for i := blk.Start; i < blk.End; i++ {
		switch ins := info.Prog.Instructions[i]; {
		case ins.IsExit():
			return true
		case !ins.Class().IsALU() || ins.ALUOp() != ebpf.ALUMov ||
			ins.Source() != ebpf.SourceK || ins.Dst != ebpf.R0:
			return false
		}
	}
	return false
}

// packetVsEnd reports whether the conditional branch at i compares a
// packet-derived pointer against data_end (ddg's label), and if so
// whether the taken path is the out-of-bounds side.
func packetVsEnd(info *ddg.Info, i int) (oobIsTaken bool, ok bool) {
	pktLeft, ok := info.PacketVsEnd(i)
	if !ok {
		return false, false
	}
	switch info.Prog.Instructions[i].JumpOp() {
	case ebpf.JumpGT, ebpf.JumpGE: // taken when left > right
		return pktLeft, true // pkt+k > end  => OOB taken
	case ebpf.JumpLT, ebpf.JumpLE: // taken when left < right
		return !pktLeft, true // end < pkt+k => OOB taken
	}
	return false, false
}

// elideBoundsChecks removes data_end comparisons whose failing side is a
// trivial verdict block. The hardware performs the equivalent check on
// every frame access (Section 4.4: "this check is readily implemented in
// hardware ... and can therefore be safely skipped").
func elideBoundsChecks(info *ddg.Info) (*ebpf.Program, int, error) {
	prog := info.Prog
	drop := map[int]bool{}
	ja := map[int]bool{}
	count := 0
	for i := range prog.Instructions {
		oobTaken, ok := packetVsEnd(info, i)
		if !ok {
			continue
		}
		takenBlk, _ := prog.BranchTarget(i)
		fallIdx := i + 1
		var oobBlock int
		if oobTaken {
			oobBlock = info.Graph.BlockOf(takenBlk)
		} else {
			if fallIdx >= len(prog.Instructions) {
				continue
			}
			oobBlock = info.Graph.BlockOf(fallIdx)
		}
		if !isTrivialVerdictBlock(info, oobBlock) {
			continue
		}
		count++
		if oobTaken {
			drop[i] = true // never taken: fall through
		} else {
			ja[i] = true // always taken: continue at the target
		}
	}
	if count == 0 {
		return prog, 0, nil
	}
	out, err := rewrite(prog, drop, ja)
	return out, count, err
}

// effectiveUses is the set of registers instruction i consumes in
// hardware: its uses without the base register of a statically
// addressed load/store and without the pointer arguments of a map
// helper whose key/value stack slots are static.
func effectiveUses(info *ddg.Info, i int) uint16 {
	ins := info.Prog.Instructions[i]
	uses := info.UseMask(i)
	if ins.IsCall() {
		helper := ebpf.HelperID(ins.Imm)
		if helper.AccessesMap() && info.CallMap[i] >= 0 {
			uses &^= 1 << ebpf.R1 // the map pointer is static per call site
			if info.CallKey[i].Known {
				uses &^= 1 << ebpf.R2
			}
			if helper == ebpf.HelperMapUpdateElem && info.CallVal[i].Known {
				uses &^= 1 << ebpf.R3
			}
		}
		return uses
	}
	acc := info.Accesses[i]
	if acc == nil || !acc.OffKnown {
		return uses
	}
	switch ins.Class() {
	case ebpf.ClassLDX:
		uses &^= 1 << ins.Src
	case ebpf.ClassST:
		uses &^= 1 << ins.Dst
	case ebpf.ClassSTX:
		// The base goes unless it is also a value the access consumes:
		// the stored source, or cmpxchg's compare value in R0.
		value := ins.Dst == ins.Src ||
			ins.IsAtomic() && ins.AtomicOp() == ebpf.AtomicCmpXchg && ins.Dst == ebpf.R0
		if !value {
			uses &^= 1 << ins.Dst
		}
	}
	return uses
}

// hasSideEffects reports whether removing instruction i could change
// observable behaviour even when its register results are dead.
func hasSideEffects(ins ebpf.Instruction) bool {
	switch cls := ins.Class(); {
	case cls == ebpf.ClassST, cls == ebpf.ClassSTX:
		return true
	case cls.IsJump():
		return true // branches shape control flow; exit ends the program
	default:
		return false
	}
}

// pure returns whether instruction i of info's program may be removed
// when its results are dead.
func pure(info *ddg.Info) func(i int) bool {
	return func(i int) bool { return !hasSideEffects(info.Prog.Instructions[i]) }
}

// wiringSet classifies the instructions that produce no hardware at all:
// side-effect-free definitions whose every use was elided because the
// consuming access resolves to a static address. These are the address
// computations of Figure 8 that never appear as pipeline stages — in the
// generated design they are wires, not logic. The instructions stay in
// the transformed program (the provenance analysis still reads them) but
// are not scheduled. A wiring instruction consumes nothing itself, so
// one liveness pass over the effective uses dissolves whole
// address-computation chains.
func wiringSet(info *ddg.Info) []bool {
	_, wiring := info.Liveness(func(i int) uint16 { return effectiveUses(info, i) }, pure(info))
	return wiring
}

// deadCodeElim removes unreachable blocks and the side-effect-free
// instructions whose results are dead under the full register uses (so
// the provenance analysis stays valid), in one liveness pass and one
// rewrite. It returns the analysis of the result and how many
// instructions it removed.
func deadCodeElim(info *ddg.Info) (*ddg.Info, int, error) {
	_, dead := info.Liveness(info.UseMask, pure(info))
	drop := map[int]bool{}
	reach := info.Graph.Reachable()
	for b, blk := range info.Graph.Blocks {
		for i := blk.Start; i < blk.End; i++ {
			if !reach[b] || dead[i] {
				drop[i] = true
			}
		}
	}
	if len(drop) == 0 {
		return info, 0, nil
	}
	next, err := rewrite(info.Prog, drop, nil)
	if err != nil {
		return nil, 0, err
	}
	out, err := analyze(next)
	return out, len(drop), err
}
