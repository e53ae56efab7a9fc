package ebpf

import (
	"fmt"
	"sort"
)

// MapKind enumerates the eBPF map types the toolchain supports.
type MapKind int

// Supported map kinds. The numbering is internal; the textual names
// match the kernel map type names.
const (
	MapArray MapKind = iota + 1
	MapHash
	MapLRUHash
	MapLPMTrie
	MapDevMap
)

func (k MapKind) String() string {
	switch k {
	case MapArray:
		return "BPF_MAP_TYPE_ARRAY"
	case MapHash:
		return "BPF_MAP_TYPE_HASH"
	case MapLRUHash:
		return "BPF_MAP_TYPE_LRU_HASH"
	case MapLPMTrie:
		return "BPF_MAP_TYPE_LPM_TRIE"
	case MapDevMap:
		return "BPF_MAP_TYPE_DEVMAP"
	}
	return "BPF_MAP_TYPE_?"
}

// MapSpec declares a map statically created when the program is loaded
// (Section 4.1). The eHDL compiler reads the parameters to size the
// eHDLmap hardware block.
type MapSpec struct {
	Name       string
	Kind       MapKind
	KeySize    int
	ValueSize  int
	MaxEntries int
}

// Validate checks that the declaration is well formed.
func (s MapSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("ebpf: map with empty name")
	}
	switch s.Kind {
	case MapArray, MapHash, MapLRUHash, MapLPMTrie, MapDevMap:
	default:
		return fmt.Errorf("ebpf: map %q: unknown kind %d", s.Name, s.Kind)
	}
	if s.KeySize <= 0 || s.KeySize > 64 {
		return fmt.Errorf("ebpf: map %q: invalid key size %d", s.Name, s.KeySize)
	}
	if s.ValueSize <= 0 || s.ValueSize > 4096 {
		return fmt.Errorf("ebpf: map %q: invalid value size %d", s.Name, s.ValueSize)
	}
	if s.MaxEntries <= 0 {
		return fmt.Errorf("ebpf: map %q: invalid max entries %d", s.Name, s.MaxEntries)
	}
	if (s.Kind == MapArray || s.Kind == MapDevMap) && s.KeySize != 4 {
		// DEVMAPs share the array implementation: u32 index keys.
		return fmt.Errorf("ebpf: array map %q requires 4-byte keys, got %d", s.Name, s.KeySize)
	}
	if s.Kind == MapLPMTrie && s.KeySize < 5 {
		// A trie key is a 4-byte prefix length plus the address bytes.
		return fmt.Errorf("ebpf: LPM trie map %q requires keys of at least 5 bytes, got %d", s.Name, s.KeySize)
	}
	return nil
}

// Program is a complete eBPF/XDP program: the instruction stream plus
// the maps it declares.
type Program struct {
	Name         string
	Instructions []Instruction
	Maps         []MapSpec
}

// MapSpecByName returns the declaration of the named map.
func (p *Program) MapSpecByName(name string) (MapSpec, bool) {
	for _, m := range p.Maps {
		if m.Name == name {
			return m, true
		}
	}
	return MapSpec{}, false
}

// MapIndex returns the position of the named map in p.Maps, which the
// toolchain uses as the map identifier.
func (p *Program) MapIndex(name string) (int, bool) {
	for i, m := range p.Maps {
		if m.Name == name {
			return i, true
		}
	}
	return 0, false
}

// SlotOffsets returns, for each instruction index, the slot offset at
// which the instruction starts. Branch offsets are expressed in slots,
// so this is the bridge between index space and wire space.
func (p *Program) SlotOffsets() []int {
	offs := make([]int, len(p.Instructions)+1)
	slot := 0
	for i, ins := range p.Instructions {
		offs[i] = slot
		slot += ins.Slots()
	}
	offs[len(p.Instructions)] = slot
	return offs
}

// IndexBySlot builds the inverse mapping from slot offset to instruction
// index. Slots inside the second half of a LDDW map to no instruction.
func (p *Program) IndexBySlot() map[int]int {
	m := make(map[int]int, len(p.Instructions))
	slot := 0
	for i, ins := range p.Instructions {
		m[slot] = i
		slot += ins.Slots()
	}
	return m
}

// BranchTarget resolves the instruction index targeted by the branch at
// index i. The second result is false when i is not a branch or the
// target is invalid.
func (p *Program) BranchTarget(i int) (int, bool) {
	if i < 0 || i >= len(p.Instructions) {
		return 0, false
	}
	ins := p.Instructions[i]
	if !ins.IsBranch() {
		return 0, false
	}
	// Walk the offset's slot distance from the instruction after the
	// branch; only a LDDW spans two slots, so the walk lands either on an
	// instruction's first slot or inside a LDDW.
	j, dist := i+1, int(ins.Off)
	for dist > 0 && j < len(p.Instructions) {
		dist -= p.Instructions[j].Slots()
		j++
	}
	for dist < 0 && j > 0 {
		j--
		dist += p.Instructions[j].Slots()
	}
	if dist != 0 || j >= len(p.Instructions) {
		return 0, false
	}
	return j, true
}

// Validate checks program-level invariants: per-instruction validity,
// in-range branch targets that do not land inside a LDDW, resolvable map
// references, a trailing exit on every fall-off path, and that the
// read-only frame pointer R10 is never written.
func (p *Program) Validate() error {
	if len(p.Instructions) == 0 {
		return fmt.Errorf("ebpf: program %q has no instructions", p.Name)
	}
	for _, m := range p.Maps {
		if err := m.Validate(); err != nil {
			return err
		}
	}
	seen := make(map[string]bool, len(p.Maps))
	for _, m := range p.Maps {
		if seen[m.Name] {
			return fmt.Errorf("ebpf: duplicate map %q", m.Name)
		}
		seen[m.Name] = true
	}

	offs := p.SlotOffsets()
	totalSlots := offs[len(p.Instructions)]

	for i, ins := range p.Instructions {
		if err := ins.Validate(); err != nil {
			return fmt.Errorf("ebpf: instruction %d (%s): %w", i, ins, err)
		}
		if ins.DefMask()&(1<<R10) != 0 {
			return fmt.Errorf("ebpf: instruction %d (%s) writes the read-only frame pointer r10", i, ins)
		}
		if ins.IsBranch() {
			target := offs[i] + ins.Slots() + int(ins.Off)
			if target < 0 || target >= totalSlots {
				return fmt.Errorf("ebpf: instruction %d (%s) jumps out of the program (slot %d of %d)", i, ins, target, totalSlots)
			}
			if k := sort.SearchInts(offs, target); offs[k] != target {
				return fmt.Errorf("ebpf: instruction %d (%s) jumps into the middle of a lddw", i, ins)
			}
		}
		if ins.IsLoadOfMapFD() && ins.MapRef != "" {
			if _, ok := p.MapSpecByName(ins.MapRef); !ok {
				return fmt.Errorf("ebpf: instruction %d references undeclared map %q", i, ins.MapRef)
			}
		}
	}

	last := p.Instructions[len(p.Instructions)-1]
	if !last.IsExit() && !(last.IsBranch() && last.JumpOp() == JumpAlways) {
		return fmt.Errorf("ebpf: program %q falls off the end (last instruction %s)", p.Name, last)
	}
	return nil
}

// DefMask returns the registers the instruction writes as a bit set (bit
// r for register r), without allocating: the form data-flow loops and
// per-packet checks use.
func (ins Instruction) DefMask() uint16 {
	var m uint16
	switch cls := ins.Class(); {
	case cls.IsALU(), cls == ClassLDX, ins.IsLoadImm64():
		m = 1 << ins.Dst
	case ins.IsAtomic():
		// cmpxchg (0xf1) carries the fetch bit but returns the old value
		// in R0, not in the source register: test its selector first.
		switch op := ins.AtomicOp(); {
		case op == AtomicCmpXchg:
			m = 1 << R0
		case op&AtomicFetch != 0: // the fetch variants and xchg
			m = 1 << ins.Src
		}
	case ins.IsCall():
		m = 1<<(R5+1) - 1 // calls clobber R0-R5
	}
	return m & (1<<(R10+1) - 1)
}

// UseMask returns the registers the instruction reads as a bit set (bit
// r for register r), without allocating.
func (ins Instruction) UseMask() uint16 {
	var m uint16
	switch cls := ins.Class(); {
	case cls.IsALU():
		op := ins.ALUOp()
		if op != ALUMov {
			m = 1 << ins.Dst // read-modify-write, neg and byte swap
		}
		if ins.Source() == SourceX && op != ALUNeg && op != ALUEnd {
			m |= 1 << ins.Src
		}
	case cls == ClassLDX:
		m = 1 << ins.Src
	case cls == ClassST:
		m = 1 << ins.Dst
	case cls == ClassSTX:
		m = 1<<ins.Dst | 1<<ins.Src
		if ins.IsAtomic() && ins.AtomicOp() == AtomicCmpXchg {
			m |= 1 << R0 // the compare value
		}
	case cls.IsJump():
		switch ins.JumpOp() {
		case JumpAlways:
		case JumpExit:
			m = 1 << R0 // the verdict travels in R0
		case JumpCall:
			// Arguments R1-R5 are conservatively live; the precise set
			// depends on the helper signature and is refined by the
			// data-dependency analysis.
			m = 1<<(R5+1) - 1<<R1
		default:
			m = 1 << ins.Dst
			if ins.Source() == SourceX {
				m |= 1 << ins.Src
			}
		}
	}
	return m & (1<<(R10+1) - 1)
}

// Defs returns the registers the instruction writes, in ascending order.
func (ins Instruction) Defs() []Register { return maskRegs(ins.DefMask()) }

// Uses returns the registers the instruction reads, in ascending order.
func (ins Instruction) Uses() []Register { return maskRegs(ins.UseMask()) }

func maskRegs(m uint16) []Register {
	var out []Register
	for r := R0; r <= R10; r++ {
		if m&(1<<r) != 0 {
			out = append(out, r)
		}
	}
	return out
}
