package ddg

import (
	"fmt"

	"ehdl/internal/cfg"
	"ehdl/internal/ebpf"
)

// Access describes the memory behaviour of one instruction.
type Access struct {
	Area     MemArea
	MapID    int   // meaningful when Area == AreaMap
	Off      int64 // byte offset from the region base (stack: negative, from R10)
	OffKnown bool
	Size     int
	Read     bool
	Write    bool
	Atomic   bool
}

// ArgLoc locates a helper pointer argument within the stack frame when
// the compiler can prove it constant.
type ArgLoc struct {
	Off   int64 // offset from R10
	Known bool
}

// Info is the result of analysing a program.
type Info struct {
	Prog  *ebpf.Program
	Graph *cfg.Graph

	// Accesses holds the memory access of each instruction, nil when the
	// instruction does not touch memory through a pointer.
	Accesses []*Access
	// CallMap gives, for helper calls that access a map, the map
	// identifier taken from the provenance of R1; -1 otherwise.
	CallMap []int
	// CallKey/CallVal locate the key (R2) and value (R3) stack slots of
	// map helper calls, when statically known.
	CallKey []ArgLoc
	CallVal []ArgLoc
	// MapIDOfLDDW gives the map identifier loaded by each LDDW map
	// reference; -1 otherwise.
	MapIDOfLDDW []int

	// packetVsEnd labels each conditional jump comparing the packet
	// pointer with data_end: 1 when the packet pointer is the left
	// operand, -1 when it is the right one, 0 for any other jump.
	packetVsEnd []int8
	order       []int // the reachable blocks in topological order
}

// Analyze runs provenance labeling over an acyclic program.
func Analyze(g *cfg.Graph) (*Info, error) {
	order, err := g.TopologicalBlocks()
	if err != nil {
		return nil, err
	}
	prog := g.Prog
	n := len(prog.Instructions)
	info := &Info{
		Prog:        prog,
		Graph:       g,
		Accesses:    make([]*Access, n),
		CallMap:     make([]int, n),
		CallKey:     make([]ArgLoc, n),
		CallVal:     make([]ArgLoc, n),
		MapIDOfLDDW: make([]int, n),
		packetVsEnd: make([]int8, n),
		order:       order,
	}
	for i := range info.CallMap {
		info.CallMap[i] = -1
		info.MapIDOfLDDW[i] = -1
	}
	for i, ins := range prog.Instructions {
		if ins.IsLoadOfMapFD() {
			id, ok := prog.MapIndex(ins.MapRef)
			if !ok {
				return nil, fmt.Errorf("ddg: instruction %d references undeclared map %q", i, ins.MapRef)
			}
			info.MapIDOfLDDW[i] = id
		}
	}

	states := analyzeProvenance(g, order, info.MapIDOfLDDW)

	// The labels live in one array; Accesses points into it.
	labels := make([]Access, n)
	for i, ins := range prog.Instructions {
		st := states[i]
		switch cls := ins.Class(); {
		case cls == ebpf.ClassLDX:
			acc := &labels[i]
			if err := acc.label(st[ins.Src], ins.Off, ins.MemSize().Bytes()); err != nil {
				return nil, fmt.Errorf("ddg: instruction %d (%s): %w", i, ins, err)
			}
			acc.Read = true
			info.Accesses[i] = acc
		case cls == ebpf.ClassST, cls == ebpf.ClassSTX:
			acc := &labels[i]
			if err := acc.label(st[ins.Dst], ins.Off, ins.MemSize().Bytes()); err != nil {
				return nil, fmt.Errorf("ddg: instruction %d (%s): %w", i, ins, err)
			}
			acc.Write = true
			if ins.IsAtomic() {
				acc.Read, acc.Atomic = true, true
			}
			if acc.Area == AreaCtx {
				return nil, fmt.Errorf("ddg: instruction %d (%s): xdp_md is read-only", i, ins)
			}
			info.Accesses[i] = acc
		case ins.IsCall():
			helper := ebpf.HelperID(ins.Imm)
			if helper.AccessesMap() {
				r1 := st[ebpf.R1]
				if r1.kind != pvMapPtr {
					return nil, fmt.Errorf("ddg: instruction %d (%s): R1 does not hold a map pointer", i, ins)
				}
				info.CallMap[i] = r1.mapID
				labels[i] = Access{
					Area:  AreaMap,
					MapID: r1.mapID,
					Size:  prog.Maps[r1.mapID].ValueSize,
					Read:  true,
					Write: helper.WritesMap(),
				}
				info.Accesses[i] = &labels[i]
				if r2 := st[ebpf.R2]; r2.kind == pvStack && r2.offKnown {
					info.CallKey[i] = ArgLoc{Off: r2.off, Known: true}
				}
				if helper == ebpf.HelperMapUpdateElem {
					if r3 := st[ebpf.R3]; r3.kind == pvStack && r3.offKnown {
						info.CallVal[i] = ArgLoc{Off: r3.off, Known: true}
					}
				}
			}
		case cls == ebpf.ClassJMP && ins.IsConditional() && ins.Source() == ebpf.SourceX:
			switch dst, src := st[ins.Dst].kind, st[ins.Src].kind; {
			case dst == pvPacket && src == pvPacketEnd:
				info.packetVsEnd[i] = 1
			case dst == pvPacketEnd && src == pvPacket:
				info.packetVsEnd[i] = -1
			}
		}
	}
	return info, nil
}

// PacketVsEnd reports whether the conditional jump at i is a 64-bit
// register comparison of the packet data pointer, at any offset, with
// data_end itself (a packet length data_end - data never is), and if so
// whether the packet pointer is the left operand.
func (in *Info) PacketVsEnd(i int) (packetIsLeft, ok bool) {
	return in.packetVsEnd[i] > 0, in.packetVsEnd[i] != 0
}

// label sets the area, map and offset of an access through base plus
// off of size bytes.
func (a *Access) label(base pv, off int16, size int) error {
	area := kindArea[base.kind]
	if area == AreaNone {
		return errUntracked
	}
	*a = Access{
		Area:     area,
		MapID:    base.mapID,
		Off:      base.off + int64(off),
		OffKnown: base.offKnown,
		Size:     size,
	}
	return nil
}

// helperUseMask returns the argument registers a helper actually reads,
// refining the conservative R1-R5 of Instruction.UseMask.
func helperUseMask(id ebpf.HelperID) uint16 {
	const r1, r2, r3, r4, r5 = 1 << ebpf.R1, 1 << ebpf.R2, 1 << ebpf.R3, 1 << ebpf.R4, 1 << ebpf.R5
	switch id {
	case ebpf.HelperMapLookupElem, ebpf.HelperMapDeleteElem:
		return r1 | r2
	case ebpf.HelperMapUpdateElem:
		return r1 | r2 | r3 | r4
	case ebpf.HelperRedirect:
		return r1 | r2
	case ebpf.HelperRedirectMap:
		return r1 | r2 | r3
	case ebpf.HelperXDPAdjustHead, ebpf.HelperXDPAdjustTail:
		return r1 | r2
	case ebpf.HelperL3CsumReplace, ebpf.HelperL4CsumReplace:
		return r1 | r2 | r3 | r4 | r5
	}
	return 0
}

// UseMask returns the registers instruction i reads as a bit set, with
// helper-call argument refinement.
func (in *Info) UseMask(i int) uint16 {
	ins := in.Prog.Instructions[i]
	if ins.IsCall() {
		return helperUseMask(ebpf.HelperID(ins.Imm))
	}
	return ins.UseMask()
}

// Liveness runs register liveness backward over the acyclic program in
// one pass: reachable blocks in reverse topological order, each block's
// instructions last to first. uses(i) is the set of registers
// instruction i reads. An instruction that removable accepts, that
// defines registers and none of whose definitions is live after it is
// dead: it reads and kills nothing, so a chain of definitions feeding
// only dead instructions dies in the same pass — the fixpoint of
// repeated liveness-and-removal rounds, reached at once because the
// graph has no back edge. liveOut[i] is the set of registers live after
// instruction i. A nil removable removes nothing.
func (in *Info) Liveness(uses func(i int) uint16, removable func(i int) bool) (liveOut []uint16, dead []bool) {
	g, order := in.Graph, in.order
	n := len(in.Prog.Instructions)
	liveOut = make([]uint16, n)
	dead = make([]bool, n)
	blockLiveIn := make([]uint16, len(g.Blocks))
	for k := len(order) - 1; k >= 0; k-- {
		blk := g.Blocks[order[k]]
		var live uint16
		for _, s := range blk.Succs {
			live |= blockLiveIn[s]
		}
		for i := blk.End - 1; i >= blk.Start; i-- {
			liveOut[i] = live
			def := in.Prog.Instructions[i].DefMask()
			if removable != nil && def != 0 && def&live == 0 && removable(i) {
				dead[i] = true
				continue
			}
			live = live&^def | uses(i)
		}
		blockLiveIn[order[k]] = live
	}
	return liveOut, dead
}

// Conflicts reports whether instructions i and j (i before j in program
// order, same control block) must stay ordered: they have a register
// dependency, overlapping memory effects, or either is a scheduling
// barrier (helper call).
func (in *Info) Conflicts(i, j int) bool {
	defsI := in.Prog.Instructions[i].DefMask()
	defsJ := in.Prog.Instructions[j].DefMask()
	usesI, usesJ := in.UseMask(i), in.UseMask(j)
	if defsI&usesJ != 0 || usesI&defsJ != 0 || defsI&defsJ != 0 {
		return true
	}

	insI, insJ := in.Prog.Instructions[i], in.Prog.Instructions[j]
	// Helper calls order against every memory access and other calls.
	if insI.IsCall() || insJ.IsCall() {
		if insI.IsCall() && insJ.IsCall() {
			return true
		}
		other := in.Accesses[i]
		if insI.IsCall() {
			other = in.Accesses[j]
		}
		return other != nil
	}

	accI, accJ := in.Accesses[i], in.Accesses[j]
	if accI == nil || accJ == nil {
		return false
	}
	if !accI.Write && !accJ.Write {
		return false // two reads commute
	}
	return accessesOverlap(accI, accJ)
}

func accessesOverlap(a, b *Access) bool {
	if a.Area != b.Area {
		return false
	}
	if a.Area == AreaMap && a.MapID != b.MapID {
		return false
	}
	if !a.OffKnown || !b.OffKnown {
		return true
	}
	return a.Off < b.Off+int64(b.Size) && b.Off < a.Off+int64(a.Size)
}
