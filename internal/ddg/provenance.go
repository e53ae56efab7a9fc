// Package ddg performs the data-flow analyses the eHDL compiler relies
// on (Section 3.1 of the paper): pointer-provenance tracking that labels
// every load and store with the memory area it touches (stack, packet,
// or a specific map) and every comparison of a packet pointer against
// data_end, register and stack liveness for state pruning
// (Section 4.3), and the instruction dependencies that bound
// instruction-level parallelism (Section 3.3).
package ddg

import (
	"fmt"

	"ehdl/internal/cfg"
	"ehdl/internal/ebpf"
)

// MemArea classifies the memory a load/store touches.
type MemArea int

// Memory areas.
const (
	AreaNone MemArea = iota
	AreaCtx
	AreaStack
	AreaPacket
	AreaMap
)

func (a MemArea) String() string {
	switch a {
	case AreaNone:
		return "none"
	case AreaCtx:
		return "ctx"
	case AreaStack:
		return "stack"
	case AreaPacket:
		return "packet"
	case AreaMap:
		return "map"
	}
	return "area?"
}

// pvKind is the pointer-provenance lattice.
type pvKind int

const (
	pvScalar pvKind = iota
	pvCtx
	pvPacket
	pvPacketEnd
	pvStack
	pvMapPtr
	pvMapValue
	pvUnknown // join of incompatible values
)

// pv is an abstract register value: a provenance kind plus, where
// meaningful, a constant byte offset from the region base.
type pv struct {
	kind     pvKind
	mapID    int
	off      int64
	offKnown bool
}

func scalar() pv { return pv{kind: pvScalar} }

// join merges two abstract values at a control-flow merge point.
func (a pv) join(b pv) pv {
	if a == b {
		return a
	}
	if a.kind == b.kind && a.mapID == b.mapID {
		// Same region, different or unknown offsets.
		return pv{kind: a.kind, mapID: a.mapID}
	}
	if a.kind == pvScalar && b.kind == pvScalar {
		return scalar()
	}
	return pv{kind: pvUnknown}
}

// addConst offsets a pointer by a compile-time constant.
func (a pv) addConst(c int64) pv {
	switch a.kind {
	case pvPacket, pvStack, pvMapValue:
		if a.offKnown {
			return pv{kind: a.kind, mapID: a.mapID, off: a.off + c, offKnown: true}
		}
		return a
	case pvScalar:
		return scalar()
	}
	return pv{kind: pvUnknown}
}

// addUnknown offsets a pointer by a run-time value.
func (a pv) addUnknown() pv {
	switch a.kind {
	case pvPacket, pvStack, pvMapValue:
		return pv{kind: a.kind, mapID: a.mapID}
	case pvScalar:
		return scalar()
	}
	return pv{kind: pvUnknown}
}

// regState is the abstract register file at one program point.
type regState [ebpf.NumRegisters]pv

func entryState() regState {
	var st regState
	for i := range st {
		st[i] = scalar()
	}
	st[ebpf.R1] = pv{kind: pvCtx, offKnown: true}
	st[ebpf.R10] = pv{kind: pvStack, offKnown: true} // offset relative to the frame top
	return st
}

func (s regState) join(o regState) regState {
	var out regState
	for i := range s {
		out[i] = s[i].join(o[i])
	}
	return out
}

// transfer applies one instruction to the abstract state. mapIDs maps
// LDDW instruction indices to map identifiers.
func transfer(st regState, ins ebpf.Instruction, mapID int) regState {
	switch cls := ins.Class(); {
	case cls.IsALU():
		op := ins.ALUOp()
		dst := ins.Dst
		switch op {
		case ebpf.ALUMov:
			if ins.Source() == ebpf.SourceX {
				st[dst] = st[ins.Src]
				if cls == ebpf.ClassALU && st[dst].kind != pvScalar {
					st[dst] = pv{kind: pvUnknown} // a 32-bit pointer copy loses track
				}
			} else {
				st[dst] = scalar()
			}
		case ebpf.ALUAdd:
			if ins.Source() == ebpf.SourceK {
				st[dst] = st[dst].addConst(int64(ins.Imm))
			} else {
				src := st[ins.Src]
				switch {
				case st[dst].kind == pvScalar && src.kind != pvScalar:
					// scalar + pointer: the pointer wins.
					st[dst] = src.addUnknown()
				case src.kind == pvScalar:
					st[dst] = st[dst].addUnknown()
				default:
					st[dst] = pv{kind: pvUnknown}
				}
			}
		case ebpf.ALUSub:
			if ins.Source() == ebpf.SourceK {
				st[dst] = st[dst].addConst(-int64(ins.Imm))
			} else if st[ins.Src].kind == pvScalar {
				st[dst] = st[dst].addUnknown()
			} else {
				// pointer - pointer yields a scalar length.
				st[dst] = scalar()
			}
		default:
			// Any other arithmetic, masking included, destroys pointer
			// provenance: the kernel verifier rejects it on pointers.
			st[dst] = scalar()
		}
	case cls == ebpf.ClassLD: // LDDW
		if mapID >= 0 {
			st[ins.Dst] = pv{kind: pvMapPtr, mapID: mapID, offKnown: true}
		} else {
			st[ins.Dst] = scalar()
		}
	case cls == ebpf.ClassLDX:
		base := st[ins.Src]
		if base.kind == pvCtx {
			switch int(ins.Off) {
			case ebpf.XDPMDData, ebpf.XDPMDDataMeta:
				st[ins.Dst] = pv{kind: pvPacket, off: 0, offKnown: true}
			case ebpf.XDPMDDataEnd:
				st[ins.Dst] = pv{kind: pvPacketEnd, offKnown: true}
			default:
				st[ins.Dst] = scalar()
			}
		} else {
			st[ins.Dst] = scalar()
		}
	case cls == ebpf.ClassSTX && ins.Mode() == ebpf.ModeATOMIC:
		op := ins.AtomicOp()
		if op&ebpf.AtomicFetch != 0 || op == ebpf.AtomicXchg {
			st[ins.Src] = scalar()
		}
		if op == ebpf.AtomicCmpXchg {
			st[ebpf.R0] = scalar()
		}
	case cls == ebpf.ClassJMP && ins.IsCall():
		helper := ebpf.HelperID(ins.Imm)
		if helper == ebpf.HelperMapLookupElem {
			// R0 becomes a pointer into the map R1 referenced, or NULL.
			if r1 := st[ebpf.R1]; r1.kind == pvMapPtr {
				st[ebpf.R0] = pv{kind: pvMapValue, mapID: r1.mapID, off: 0, offKnown: true}
			} else {
				st[ebpf.R0] = pv{kind: pvUnknown}
			}
		} else {
			st[ebpf.R0] = scalar()
		}
		for r := ebpf.R1; r <= ebpf.R5; r++ {
			st[r] = scalar()
		}
	}
	return st
}

// analyzeProvenance computes the abstract register state before every
// instruction in one sweep over the reachable blocks in topological
// order, so a block's entry state is final when the sweep reaches it.
// It joins only the predecessors the sweep visited: an unreachable one
// would otherwise join in as all scalars.
func analyzeProvenance(g *cfg.Graph, order, mapIDs []int) []regState {
	prog := g.Prog
	in := make([]regState, len(prog.Instructions))
	blockIn := make([]regState, len(g.Blocks))
	seen := make([]bool, len(g.Blocks))
	blockIn[0], seen[0] = entryState(), true
	for _, b := range order {
		st := blockIn[b]
		blk := g.Blocks[b]
		for i := blk.Start; i < blk.End; i++ {
			in[i] = st
			st = transfer(st, prog.Instructions[i], mapIDs[i])
		}
		for _, s := range blk.Succs {
			if seen[s] {
				blockIn[s] = blockIn[s].join(st)
			} else {
				blockIn[s], seen[s] = st, true
			}
		}
	}
	return in
}

// kindArea is the memory area an access through each kind touches;
// AreaNone for a kind no access may go through.
var kindArea = [...]MemArea{pvCtx: AreaCtx, pvPacket: AreaPacket, pvStack: AreaStack, pvMapValue: AreaMap, pvUnknown: AreaNone}

var errUntracked = fmt.Errorf("ddg: memory access through an untracked pointer")
