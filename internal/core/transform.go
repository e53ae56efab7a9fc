package core

import (
	"fmt"

	"ehdl/internal/cfg"
	"ehdl/internal/ddg"
	"ehdl/internal/ebpf"
)

// analysis bundles the per-round program view used by the transform
// passes.
type analysis struct {
	prog       *ebpf.Program
	g          *cfg.Graph
	info       *ddg.Info
	kindsCache [][ebpf.NumRegisters]provKindT
}

func analyze(prog *ebpf.Program) (*analysis, error) {
	g, err := cfg.Build(prog)
	if err != nil {
		return nil, err
	}
	info, err := ddg.Analyze(g)
	if err != nil {
		return nil, err
	}
	return &analysis{prog: prog, g: g, info: info}, nil
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
func isTrivialVerdictBlock(a *analysis, b int) (ebpf.XDPAction, bool) {
	blk := a.g.Blocks[b]
	verdict := ebpf.XDPAction(0xffffffff) // sentinel: R0 set elsewhere
	for i := blk.Start; i < blk.End; i++ {
		ins := a.prog.Instructions[i]
		switch {
		case ins.IsExit():
			return verdict, true
		case ins.Class().IsALU() && ins.ALUOp() == ebpf.ALUMov &&
			ins.Source() == ebpf.SourceK && ins.Dst == ebpf.R0:
			verdict = ebpf.XDPAction(uint32(ins.Imm))
		default:
			return 0, false
		}
	}
	return 0, false
}

// packetVsEnd reports whether the conditional branch at i compares a
// packet-derived pointer against data_end, and if so whether the taken
// path is the out-of-bounds side.
func packetVsEnd(a *analysis, i int) (oobIsTaken bool, ok bool) {
	ins := a.prog.Instructions[i]
	if !ins.IsConditional() || ins.Source() != ebpf.SourceX || ins.Class() != ebpf.ClassJMP {
		return false, false
	}
	dst, src := a.provKind(i, ins.Dst), a.provKind(i, ins.Src)
	var pktLeft bool
	switch {
	case dst == pvPacketKind && src == pvPacketEndKind:
		pktLeft = true
	case dst == pvPacketEndKind && src == pvPacketKind:
		pktLeft = false
	default:
		return false, false
	}
	switch ins.JumpOp() {
	case ebpf.JumpGT, ebpf.JumpGE: // taken when left > right
		return pktLeft, true // pkt+k > end  => OOB taken
	case ebpf.JumpLT, ebpf.JumpLE: // taken when left < right
		return !pktLeft, true // end < pkt+k => OOB taken
	}
	return false, false
}

// Exported-ish provenance kinds for the elision pass without leaking the
// ddg lattice: recomputed locally from the access/pointer analysis.
type provKindT int

const (
	pvOtherKind provKindT = iota
	pvPacketKind
	pvPacketEndKind
)

// provKind classifies the value of reg before instruction i by re-running
// a tiny provenance query through ddg: we reconstruct it from the
// instruction stream with a forward scan inside the ddg package's
// abstraction via Info (the Access labels expose packet provenance only
// for memory operands), so the compiler carries its own lightweight
// pass here.
func (a *analysis) provKind(i int, reg ebpf.Register) provKindT {
	kinds := a.pointerKinds()
	return kinds[i][reg]
}

// pointerKinds caches a minimal forward provenance pass (packet /
// packet-end / other) per instruction.
func (a *analysis) pointerKinds() [][ebpf.NumRegisters]provKindT {
	if a.kindsCache != nil {
		return a.kindsCache
	}
	n := len(a.prog.Instructions)
	kinds := make([][ebpf.NumRegisters]provKindT, n)

	join := func(x, y [ebpf.NumRegisters]provKindT) [ebpf.NumRegisters]provKindT {
		var out [ebpf.NumRegisters]provKindT
		for r := range out {
			if x[r] == y[r] {
				out[r] = x[r]
			} else {
				out[r] = pvOtherKind
			}
		}
		return out
	}

	// ctxRegs tracks which registers hold the xdp_md pointer.
	type state struct {
		kinds [ebpf.NumRegisters]provKindT
		ctx   [ebpf.NumRegisters]bool
	}
	blockState := make([]state, len(a.g.Blocks))
	blockState[0].ctx[ebpf.R1] = true

	work := []int{0}
	visited := make([]bool, len(a.g.Blocks))
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		st := blockState[b]
		blk := a.g.Blocks[b]
		for i := blk.Start; i < blk.End; i++ {
			kinds[i] = st.kinds
			ins := a.prog.Instructions[i]
			switch cls := ins.Class(); {
			case cls == ebpf.ClassLDX:
				srcIsCtx := st.ctx[ins.Src] // read before clobbering dst: src may be dst
				st.kinds[ins.Dst] = pvOtherKind
				st.ctx[ins.Dst] = false
				if srcIsCtx {
					switch int(ins.Off) {
					case ebpf.XDPMDData, ebpf.XDPMDDataMeta:
						st.kinds[ins.Dst] = pvPacketKind
					case ebpf.XDPMDDataEnd:
						st.kinds[ins.Dst] = pvPacketEndKind
					}
				}
			case cls.IsALU():
				op := ins.ALUOp()
				switch {
				case op == ebpf.ALUMov && ins.Source() == ebpf.SourceX && cls == ebpf.ClassALU64:
					st.kinds[ins.Dst] = st.kinds[ins.Src]
					st.ctx[ins.Dst] = st.ctx[ins.Src]
				case (op == ebpf.ALUAdd || op == ebpf.ALUSub) && cls == ebpf.ClassALU64:
					// Pointer arithmetic keeps packet provenance.
					st.ctx[ins.Dst] = false
				default:
					st.kinds[ins.Dst] = pvOtherKind
					st.ctx[ins.Dst] = false
				}
			case ins.IsCall():
				for r := ebpf.R0; r <= ebpf.R5; r++ {
					st.kinds[r] = pvOtherKind
					st.ctx[r] = false
				}
			case cls == ebpf.ClassLD:
				st.kinds[ins.Dst] = pvOtherKind
				st.ctx[ins.Dst] = false
			}
		}
		for _, s := range blk.Succs {
			next := st
			if visited[s] {
				next.kinds = join(blockState[s].kinds, st.kinds)
				for r := range next.ctx {
					next.ctx[r] = blockState[s].ctx[r] && st.ctx[r]
				}
			}
			if !visited[s] || next != blockState[s] {
				blockState[s] = next
				visited[s] = true
				work = append(work, s)
			}
		}
	}
	a.kindsCache = kinds
	return kinds
}

// elideBoundsChecks removes data_end comparisons whose failing side is a
// trivial verdict block. The hardware performs the equivalent check on
// every frame access (Section 4.4: "this check is readily implemented in
// hardware ... and can therefore be safely skipped").
func elideBoundsChecks(a *analysis) (*ebpf.Program, int, error) {
	drop := map[int]bool{}
	ja := map[int]bool{}
	count := 0
	for i, ins := range a.prog.Instructions {
		if !ins.IsConditional() {
			continue
		}
		oobTaken, ok := packetVsEnd(a, i)
		if !ok {
			continue
		}
		takenBlk, _ := a.prog.BranchTarget(i)
		fallIdx := i + 1
		var oobBlock int
		if oobTaken {
			oobBlock = a.g.BlockOf(takenBlk)
		} else {
			if fallIdx >= len(a.prog.Instructions) {
				continue
			}
			oobBlock = a.g.BlockOf(fallIdx)
		}
		if _, trivial := isTrivialVerdictBlock(a, oobBlock); !trivial {
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
		return a.prog, 0, nil
	}
	out, err := rewrite(a.prog, drop, ja)
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

// pure reports whether instruction i of a may be removed when its
// results are dead.
func (a *analysis) pure(i int) bool { return !hasSideEffects(a.prog.Instructions[i]) }

// wiringSet classifies the instructions that produce no hardware at all:
// side-effect-free definitions whose every use was elided because the
// consuming access resolves to a static address. These are the address
// computations of Figure 8 that never appear as pipeline stages — in the
// generated design they are wires, not logic. The instructions stay in
// the transformed program (the provenance analysis still reads them) but
// are not scheduled. A wiring instruction consumes nothing itself, so
// one liveness pass over the effective uses dissolves whole
// address-computation chains.
func wiringSet(a *analysis) ([]bool, error) {
	_, wiring, err := a.info.Liveness(func(i int) uint16 { return effectiveUses(a.info, i) }, a.pure)
	return wiring, err
}

// deadCodeElim removes unreachable blocks and the side-effect-free
// instructions whose results are dead under the full register uses (so
// the provenance analysis stays valid), in one liveness pass and one
// rewrite. It returns the analysis of the result and how many
// instructions it removed.
func deadCodeElim(a *analysis) (*analysis, int, error) {
	_, dead, err := a.info.Liveness(a.info.UseMask, a.pure)
	if err != nil {
		return nil, 0, err
	}
	drop := map[int]bool{}
	reach := a.g.Reachable()
	for b, blk := range a.g.Blocks {
		for i := blk.Start; i < blk.End; i++ {
			if !reach[b] || dead[i] {
				drop[i] = true
			}
		}
	}
	if len(drop) == 0 {
		return a, 0, nil
	}
	next, err := rewrite(a.prog, drop, nil)
	if err != nil {
		return nil, 0, err
	}
	out, err := analyze(next)
	return out, len(drop), err
}
