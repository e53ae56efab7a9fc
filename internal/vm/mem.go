package vm

import (
	"encoding/binary"
	"fmt"
	"slices"

	"ehdl/internal/ebpf"
	"ehdl/internal/maps"
)

// region classifies a virtual address.
type region int

// Memory regions of the virtual address space.
const (
	regionInvalid region = iota
	regionCtx
	regionPacket
	regionStack
	regionMapValue
)

// MemSpace implements the eBPF virtual address space over a map set:
// context, packet, stack and pointer-stable map value regions. It is
// shared between the interpreter and the hardware pipeline simulator so
// both produce bit-identical register values.
type MemSpace struct {
	maps    *maps.Set
	windows []valueWindow
}

// valueWindow is one map's mapStride bytes of the value region, cut
// into handles of stride bytes. Handle h < entries is the map's slot h
// (maps.Slotted): a lookup's address is computed from the slot it hit,
// and values[h] is the buffer that lookup returned — what a later access
// through the address resolves to. The shadowHandles above entries go
// round robin to buffers that live outside the map (ShadowAddress). The
// table is therefore bounded by the map's geometry, not by how many
// keys pass through it, and grows only to the highest handle used.
type valueWindow struct {
	values  [][]byte
	stride  uint64
	entries int
	shadow  int // the next shadow handle to hand out, less entries
}

// shadowHandles is the length of a window's shadow ring. A pipeline
// that overlaps packets rebinds a packet's pointers before it resolves
// them (Rebind), so a ring that wraps costs nothing but the rebinding;
// the length only keeps the several shadows one packet can hold apart.
const shadowHandles = 16

// NewMemSpace builds the address space for a program's declared maps
// over the set it will run against. A map whose slots and shadows do not
// fit its window, or one that has no slots at all (a host view), is an
// error here rather than a wrong address later.
func NewMemSpace(prog *ebpf.Program, set *maps.Set) (*MemSpace, error) {
	m := &MemSpace{maps: set, windows: make([]valueWindow, len(prog.Maps))}
	for i, spec := range prog.Maps {
		stride := uint64((spec.ValueSize + 7) &^ 7)
		if stride == 0 {
			stride = 8
		}
		if uint64(spec.MaxEntries+shadowHandles)*stride > mapStride {
			return nil, fmt.Errorf("vm: map %q: %d entries of %d bytes exceed the %d-byte value address window",
				spec.Name, spec.MaxEntries, stride, mapStride)
		}
		if mp, ok := set.ByID(i); ok {
			if _, ok := mp.(maps.Slotted); !ok {
				return nil, fmt.Errorf("vm: map %q (%T) has no slots: a program cannot run against a host view", spec.Name, mp)
			}
		}
		m.windows[i] = valueWindow{stride: stride, entries: spec.MaxEntries}
	}
	return m, nil
}

// resolve classifies addr and returns the backing byte slice (nil for
// the context region) together with the offset of addr within it.
func (m *MemSpace) resolve(st *State, addr uint64, size int) (region, []byte, int, error) {
	switch {
	case addr >= ctxBase && addr+uint64(size) <= ctxBase+ebpf.XDPMDSize:
		return regionCtx, nil, int(addr - ctxBase), nil

	case addr >= stackTop-ebpf.StackSize && addr+uint64(size) <= stackTop:
		off := int(addr - (stackTop - ebpf.StackSize))
		return regionStack, st.Stack[:], off, nil

	case addr >= packetBase && addr < packetBase+uint64(len(st.Pkt.buf)):
		idx := int(addr - packetBase)
		if idx < st.Pkt.head || idx+size > st.Pkt.end {
			return regionInvalid, nil, 0, fmt.Errorf("packet access [%d,%d) outside data [%d,%d)",
				idx, idx+size, st.Pkt.head, st.Pkt.end)
		}
		return regionPacket, st.Pkt.buf, idx, nil

	case addr >= mapValBase:
		rel := addr - mapValBase
		id := int(rel / mapStride)
		if id >= len(m.windows) {
			return regionInvalid, nil, 0, fmt.Errorf("map value address %#x beyond declared maps", addr)
		}
		w := &m.windows[id]
		inMap := rel % mapStride
		handle := int(inMap / w.stride)
		byteOff := int(inMap % w.stride)
		if handle >= len(w.values) || w.values[handle] == nil {
			return regionInvalid, nil, 0, fmt.Errorf("dangling map value address %#x", addr)
		}
		val := w.values[handle]
		if byteOff+size > len(val) {
			return regionInvalid, nil, 0, fmt.Errorf("map value access [%d,%d) beyond value size %d",
				byteOff, byteOff+size, len(val))
		}
		return regionMapValue, val, byteOff, nil
	}
	return regionInvalid, nil, 0, fmt.Errorf("invalid memory address %#x", addr)
}

// ValueAddress returns the virtual address of the value a lookup of
// map mapID found in slot, and makes it resolve to that buffer. The
// address is a function of the slot alone, so the steady state of both
// pipeline engines' per-packet path — every lookup — hashes nothing and
// allocates nothing here.
func (m *MemSpace) ValueAddress(mapID, slot int, value []byte) uint64 {
	return m.windows[mapID].bind(mapID, slot, value)
}

// ShadowAddress is ValueAddress for a buffer that is not in the map —
// the pre-write copy a WAR shadow serves an older packet.
func (m *MemSpace) ShadowAddress(mapID int, value []byte) uint64 {
	w := &m.windows[mapID]
	h := w.entries + w.shadow
	w.shadow = (w.shadow + 1) % shadowHandles
	return w.bind(mapID, h, value)
}

func (w *valueWindow) bind(mapID, handle int, value []byte) uint64 {
	if handle >= len(w.values) {
		w.values = slices.Grow(w.values, handle+1-len(w.values))[:handle+1]
	}
	w.values[handle] = value
	return mapValBase + uint64(mapID)*mapStride + uint64(handle)*w.stride
}

// Rebind makes addr, which ValueAddress or ShadowAddress returned for
// value, resolve to value again. A slot outlives its tenant: once the
// entry is deleted or evicted and another key's lookup lands in the
// slot, the address resolves to the new tenant's buffer. Sequential
// execution never dereferences a pointer that old; an engine that
// overlaps packets can, and rebinds what the packet's own lookups
// returned before resolving an address on its behalf, so a late write
// lands in the orphaned buffer exactly as a kept slice would.
func (m *MemSpace) Rebind(addr uint64, value []byte) {
	rel := addr - mapValBase
	w := &m.windows[rel/mapStride]
	w.values[rel%mapStride/w.stride] = value
}

// load executes a LDX instruction against a state.
func (m *MemSpace) load(st *State, ins ebpf.Instruction) (uint64, error) {
	addr := st.Regs[ins.Src] + uint64(int64(ins.Off))
	return m.LoadAt(st, addr, ins.MemSize().Bytes())
}

// LoadAt reads size bytes at an explicit virtual address. The hardware
// simulator uses it for statically addressed accesses whose base
// register was elided.
func (m *MemSpace) LoadAt(st *State, addr uint64, size int) (uint64, error) {
	kind, mem, off, err := m.resolve(st, addr, size)
	if err != nil {
		return 0, err
	}
	if kind == regionCtx {
		return loadCtx(st, off, size)
	}
	return readUint(mem[off:], size), nil
}

// loadCtx synthesises the xdp_md fields.
func loadCtx(st *State, off, size int) (uint64, error) {
	if size != 4 {
		return 0, fmt.Errorf("xdp_md fields are 32-bit, got %d-byte access", size)
	}
	switch off {
	case ebpf.XDPMDData:
		return packetBase + uint64(st.Pkt.head), nil
	case ebpf.XDPMDDataEnd:
		return packetBase + uint64(st.Pkt.end), nil
	case ebpf.XDPMDDataMeta:
		return packetBase + uint64(st.Pkt.head), nil
	case ebpf.XDPMDIngressIfindex, ebpf.XDPMDRxQueueIndex, ebpf.XDPMDEgressIfindex:
		return 0, nil
	}
	return 0, fmt.Errorf("unaligned xdp_md access at offset %d", off)
}

// store executes ST/STX instructions, including atomics.
func (m *MemSpace) store(st *State, ins ebpf.Instruction) error {
	addr := st.Regs[ins.Dst] + uint64(int64(ins.Off))
	return m.StoreAt(st, ins, addr)
}

// StoreAt executes a store or atomic at an explicit virtual address.
func (m *MemSpace) StoreAt(st *State, ins ebpf.Instruction, addr uint64) error {
	size := ins.MemSize().Bytes()
	kind, mem, off, err := m.resolve(st, addr, size)
	if err != nil {
		return err
	}
	if kind == regionCtx {
		return fmt.Errorf("stores to xdp_md are not permitted")
	}

	if ins.IsAtomic() {
		return execAtomic(st, ins, mem[off:], size)
	}

	var v uint64
	if ins.Class() == ebpf.ClassST {
		v = uint64(int64(ins.Imm))
	} else {
		v = st.Regs[ins.Src]
	}
	writeUint(mem[off:], size, v)
	return nil
}

// execAtomic applies an atomic read-modify-write to mem in place.
func execAtomic(st *State, ins ebpf.Instruction, mem []byte, size int) error {
	op := ins.AtomicOp()
	old := readUint(mem, size)
	src := st.Regs[ins.Src]

	var updated uint64
	switch op &^ ebpf.AtomicFetch {
	case ebpf.AtomicAdd:
		updated = old + src
	case ebpf.AtomicOr:
		updated = old | src
	case ebpf.AtomicAnd:
		updated = old & src
	case ebpf.AtomicXor:
		updated = old ^ src
	default:
		switch op {
		case ebpf.AtomicXchg:
			st.Regs[ins.Src] = old
			writeUint(mem, size, src)
			return nil
		case ebpf.AtomicCmpXchg:
			expected := st.Regs[ebpf.R0]
			if size == 4 {
				expected = uint64(uint32(expected))
			}
			if old == expected {
				writeUint(mem, size, src)
			}
			st.Regs[ebpf.R0] = old
			return nil
		}
		return fmt.Errorf("unsupported atomic op %v", op)
	}
	writeUint(mem, size, updated)
	if op&ebpf.AtomicFetch != 0 {
		st.Regs[ins.Src] = old
	}
	return nil
}

// ViewBytes returns the n bytes starting at addr without copying, for
// helper key/value arguments the callee does not retain: the slice
// aliases the stack, packet or map value it resolved to.
func (m *MemSpace) ViewBytes(st *State, addr uint64, n int) ([]byte, error) {
	kind, mem, off, err := m.resolve(st, addr, n)
	if err != nil {
		return nil, err
	}
	if kind == regionCtx {
		return nil, fmt.Errorf("helper argument points into xdp_md")
	}
	return mem[off : off+n], nil
}

// readBytes copies n bytes starting at addr, for helper key/value
// arguments.
func (m *MemSpace) readBytes(st *State, addr uint64, n int) ([]byte, error) {
	view, err := m.ViewBytes(st, addr, n)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), view...), nil
}

// readUint reads a little-endian unsigned value of the given byte width.
func readUint(b []byte, size int) uint64 {
	switch size {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	default:
		return binary.LittleEndian.Uint64(b)
	}
}

// writeUint writes a little-endian unsigned value of the given width.
func writeUint(b []byte, size int, v uint64) {
	switch size {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	default:
		binary.LittleEndian.PutUint64(b, v)
	}
}
