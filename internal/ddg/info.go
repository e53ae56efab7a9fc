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
}

// Analyze runs provenance labeling and liveness over an acyclic program.
func Analyze(g *cfg.Graph) (*Info, error) {
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

	states := analyzeProvenance(g, info.MapIDOfLDDW)

	for i, ins := range prog.Instructions {
		st := states[i]
		switch cls := ins.Class(); {
		case cls == ebpf.ClassLDX:
			acc, err := accessOf(st[ins.Src], ins.Off, ins.MemSize().Bytes())
			if err != nil {
				return nil, fmt.Errorf("ddg: instruction %d (%s): %w", i, ins, err)
			}
			acc.Read = true
			info.Accesses[i] = acc
		case cls == ebpf.ClassST, cls == ebpf.ClassSTX:
			acc, err := accessOf(st[ins.Dst], ins.Off, ins.MemSize().Bytes())
			if err != nil {
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
				info.Accesses[i] = &Access{
					Area:  AreaMap,
					MapID: r1.mapID,
					Size:  prog.Maps[r1.mapID].ValueSize,
					Read:  true,
					Write: helper.WritesMap(),
				}
				if r2 := st[ebpf.R2]; r2.kind == pvStack && r2.offKnown {
					info.CallKey[i] = ArgLoc{Off: r2.off, Known: true}
				}
				if helper == ebpf.HelperMapUpdateElem {
					if r3 := st[ebpf.R3]; r3.kind == pvStack && r3.offKnown {
						info.CallVal[i] = ArgLoc{Off: r3.off, Known: true}
					}
				}
			}
		}
	}
	return info, nil
}

func accessOf(base pv, off int16, size int) (*Access, error) {
	area := base.kind.area()
	if area == AreaNone {
		return nil, errUntracked
	}
	return &Access{
		Area:     area,
		MapID:    base.mapID,
		Off:      base.off + int64(off),
		OffKnown: base.offKnown,
		Size:     size,
	}, nil
}

// helperUses returns the argument registers a helper actually reads,
// refining the conservative R1-R5 of Instruction.Uses.
func helperUses(id ebpf.HelperID) []ebpf.Register {
	switch id {
	case ebpf.HelperMapLookupElem, ebpf.HelperMapDeleteElem:
		return []ebpf.Register{ebpf.R1, ebpf.R2}
	case ebpf.HelperMapUpdateElem:
		return []ebpf.Register{ebpf.R1, ebpf.R2, ebpf.R3, ebpf.R4}
	case ebpf.HelperRedirect:
		return []ebpf.Register{ebpf.R1, ebpf.R2}
	case ebpf.HelperRedirectMap:
		return []ebpf.Register{ebpf.R1, ebpf.R2, ebpf.R3}
	case ebpf.HelperXDPAdjustHead, ebpf.HelperXDPAdjustTail:
		return []ebpf.Register{ebpf.R1, ebpf.R2}
	case ebpf.HelperL3CsumReplace, ebpf.HelperL4CsumReplace:
		return []ebpf.Register{ebpf.R1, ebpf.R2, ebpf.R3, ebpf.R4, ebpf.R5}
	}
	return nil
}

// UsesOf returns the registers instruction i reads, with helper-call
// argument refinement.
func (in *Info) UsesOf(i int) []ebpf.Register {
	ins := in.Prog.Instructions[i]
	if ins.IsCall() {
		return helperUses(ebpf.HelperID(ins.Imm))
	}
	return ins.Uses()
}

func regMask(regs []ebpf.Register) uint16 {
	var m uint16
	for _, r := range regs {
		m |= 1 << r
	}
	return m
}

type stackSet = [8]uint64

func stackRange(off int64, size int) (lo, hi int, ok bool) {
	// off is relative to R10 (the frame top); valid bytes are [-512, 0).
	lo = int(off) + ebpf.StackSize
	hi = lo + size
	if lo < 0 || hi > ebpf.StackSize {
		return 0, 0, false
	}
	return lo, hi, true
}

func stackSetBits(s *stackSet, lo, hi int) {
	for b := lo; b < hi; b++ {
		s[b/64] |= 1 << (b % 64)
	}
}

func stackClearBits(s *stackSet, lo, hi int) {
	for b := lo; b < hi; b++ {
		s[b/64] &^= 1 << (b % 64)
	}
}

func stackUnion(a, b stackSet) stackSet {
	var out stackSet
	for i := range out {
		out[i] = a[i] | b[i]
	}
	return out
}

func fullStack() stackSet {
	var s stackSet
	for i := range s {
		s[i] = ^uint64(0)
	}
	return s
}

// Liveness runs the backward data-flow for registers and stack bytes at
// instruction granularity, with a caller-supplied register use function
// (UsesOf, or one that drops the base registers of statically addressed
// memory accesses). liveIn[i] and liveOut[i] are the registers live
// before and after instruction i; stackLiveIn[i] marks the stack bytes
// live before it (bit k = byte at R10-512+k).
func (in *Info) Liveness(uses func(i int) []ebpf.Register) (liveIn, liveOut []uint16, stackLiveIn [][8]uint64) {
	g := in.Graph
	n := len(in.Prog.Instructions)
	liveIn = make([]uint16, n)
	liveOut = make([]uint16, n)
	stackLiveIn = make([][8]uint64, n)

	blockLiveOut := make([]uint16, len(g.Blocks))
	blockStackOut := make([]stackSet, len(g.Blocks))

	changed := true
	for changed {
		changed = false
		for b := len(g.Blocks) - 1; b >= 0; b-- {
			blk := g.Blocks[b]
			live := blockLiveOut[b]
			stk := blockStackOut[b]
			for i := blk.End - 1; i >= blk.Start; i-- {
				liveOut[i] = live
				live = live&^in.Prog.Instructions[i].DefMask() | regMask(uses(i))
				stk = in.stackStep(i, stk)
				if liveIn[i] != live {
					liveIn[i] = live
					changed = true
				}
				if stackLiveIn[i] != stk {
					stackLiveIn[i] = stk
					changed = true
				}
			}
			for _, p := range blk.Preds {
				merged := blockLiveOut[p] | live
				if merged != blockLiveOut[p] {
					blockLiveOut[p] = merged
					changed = true
				}
				ms := stackUnion(blockStackOut[p], stk)
				if ms != blockStackOut[p] {
					blockStackOut[p] = ms
					changed = true
				}
			}
		}
	}
	return liveIn, liveOut, stackLiveIn
}

// stackStep applies one instruction's effect to the stack live set.
func (in *Info) stackStep(i int, out stackSet) stackSet {
	acc := in.Accesses[i]
	ins := in.Prog.Instructions[i]

	if ins.IsCall() {
		helper := ebpf.HelperID(ins.Imm)
		if !helper.AccessesMap() {
			return out
		}
		spec := in.Prog.Maps[in.CallMap[i]]
		// The key (and value for updates) is read through R2/R3, almost
		// always from the stack. With tracked argument offsets only those
		// slots stay live; otherwise the safe answer keeps the frame.
		if !in.CallKey[i].Known {
			return fullStack()
		}
		if lo, hi, ok := stackRange(in.CallKey[i].Off, spec.KeySize); ok {
			stackSetBits(&out, lo, hi)
		}
		if helper == ebpf.HelperMapUpdateElem {
			if !in.CallVal[i].Known {
				return fullStack()
			}
			if lo, hi, ok := stackRange(in.CallVal[i].Off, spec.ValueSize); ok {
				stackSetBits(&out, lo, hi)
			}
		}
		return out
	}
	if acc == nil || acc.Area != AreaStack {
		return out
	}
	if !acc.OffKnown {
		if acc.Read {
			return fullStack()
		}
		return out // write at an unknown offset kills nothing
	}
	lo, hi, ok := stackRange(acc.Off, acc.Size)
	if !ok {
		return out
	}
	if acc.Write && !acc.Read {
		stackClearBits(&out, lo, hi)
	}
	if acc.Read {
		stackSetBits(&out, lo, hi)
	}
	return out
}

// Conflicts reports whether instructions i and j (i before j in program
// order, same control block) must stay ordered: they have a register
// dependency, overlapping memory effects, or either is a scheduling
// barrier (helper call).
func (in *Info) Conflicts(i, j int) bool {
	defsI := in.Prog.Instructions[i].DefMask()
	defsJ := in.Prog.Instructions[j].DefMask()
	usesI := regMask(in.UsesOf(i))
	usesJ := regMask(in.UsesOf(j))
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
