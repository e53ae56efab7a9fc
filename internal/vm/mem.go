package vm

import (
	"encoding/binary"
	"fmt"

	"ehdl/internal/ebpf"
	"ehdl/internal/maps"
)

// Region classifies a virtual address.
type Region int

// Memory regions of the virtual address space.
const (
	regionInvalid Region = iota
	RegionCtx
	RegionPacket
	RegionStack
	RegionMapValue
)

// MemSpace implements the eBPF virtual address space over a map set:
// context, packet, stack and pointer-stable map value regions. It is
// shared between the interpreter and the hardware pipeline simulator so
// both produce bit-identical register values.
type MemSpace struct {
	maps    *maps.Set
	handles []mapHandleTable
}

type mapHandleTable struct {
	byKey  map[string]int
	values [][]byte
	stride uint64
	// The last registration: repeated lookups of one entry (a counter,
	// a hot flow) return lastAddr without hashing. It is recognised by
	// the identity of the value's backing array, so an entry that moved
	// registers again.
	lastKey, lastVal []byte
	lastAddr         uint64
}

// NewMemSpace builds the address space for a program's declared maps.
func NewMemSpace(prog *ebpf.Program, set *maps.Set) *MemSpace {
	m := &MemSpace{maps: set}
	m.handles = make([]mapHandleTable, len(prog.Maps))
	for i, spec := range prog.Maps {
		stride := uint64((spec.ValueSize + 7) &^ 7)
		if stride == 0 {
			stride = 8
		}
		m.handles[i] = mapHandleTable{byKey: make(map[string]int), stride: stride}
	}
	return m
}

// Maps returns the underlying map set.
func (m *MemSpace) Maps() *maps.Set { return m.maps }

// Resolve classifies addr and returns the backing byte slice (nil for
// the context region) together with the offset of addr within it.
func (m *MemSpace) Resolve(st *State, addr uint64, size int) (Region, []byte, int, error) {
	switch {
	case addr >= ctxBase && addr+uint64(size) <= ctxBase+ebpf.XDPMDSize:
		return RegionCtx, nil, int(addr - ctxBase), nil

	case addr >= stackTop-ebpf.StackSize && addr+uint64(size) <= stackTop:
		off := int(addr - (stackTop - ebpf.StackSize))
		return RegionStack, st.Stack[:], off, nil

	case addr >= packetBase && addr < packetBase+uint64(len(st.Pkt.buf)):
		idx := int(addr - packetBase)
		if idx < st.Pkt.head || idx+size > st.Pkt.end {
			return regionInvalid, nil, 0, fmt.Errorf("packet access [%d,%d) outside data [%d,%d)",
				idx, idx+size, st.Pkt.head, st.Pkt.end)
		}
		return RegionPacket, st.Pkt.buf, idx, nil

	case addr >= mapValBase:
		rel := addr - mapValBase
		id := int(rel / mapStride)
		if id >= len(m.handles) {
			return regionInvalid, nil, 0, fmt.Errorf("map value address %#x beyond declared maps", addr)
		}
		tbl := &m.handles[id]
		inMap := rel % mapStride
		handle := int(inMap / tbl.stride)
		byteOff := int(inMap % tbl.stride)
		if handle >= len(tbl.values) {
			return regionInvalid, nil, 0, fmt.Errorf("dangling map value address %#x", addr)
		}
		val := tbl.values[handle]
		if byteOff+size > len(val) {
			return regionInvalid, nil, 0, fmt.Errorf("map value access [%d,%d) beyond value size %d",
				byteOff, byteOff+size, len(val))
		}
		return RegionMapValue, val, byteOff, nil
	}
	return regionInvalid, nil, 0, fmt.Errorf("invalid memory address %#x", addr)
}

// ValueAddress registers (or reuses) a stable virtual address for a map
// entry's value buffer.
func (m *MemSpace) ValueAddress(mapID int, key string, value []byte) uint64 {
	return m.ValueAddressBytes(mapID, []byte(key), value)
}

// ValueAddressBytes is ValueAddress for keys held in scratch buffers:
// the key is converted to a string only when a new handle is registered,
// so the steady state (every key seen before) performs no heap
// allocation — both pipeline engines depend on this on their per-packet
// path. A repeat of the table's last registration skips the hash as
// well; re-registering an unchanged key returns the same address by
// construction (handles are append-only), so the address stream is
// bit-identical either way.
func (m *MemSpace) ValueAddressBytes(mapID int, key, value []byte) uint64 {
	tbl := &m.handles[mapID]
	if len(value) > 0 && len(tbl.lastVal) == len(value) && &tbl.lastVal[0] == &value[0] &&
		string(key) == string(tbl.lastKey) {
		return tbl.lastAddr
	}
	handle, ok := tbl.byKey[string(key)]
	if !ok {
		handle = len(tbl.values)
		tbl.values = append(tbl.values, value)
		tbl.byKey[string(key)] = handle
	} else {
		// Refresh in case the entry was deleted and re-created.
		tbl.values[handle] = value
	}
	addr := mapValBase + uint64(mapID)*mapStride + uint64(handle)*tbl.stride
	if len(value) > 0 {
		tbl.lastVal, tbl.lastKey, tbl.lastAddr = value, append(tbl.lastKey[:0], key...), addr
	}
	return addr
}

// Load executes a LDX instruction against a state.
func (m *MemSpace) Load(st *State, ins ebpf.Instruction) (uint64, error) {
	addr := st.Regs[ins.Src] + uint64(int64(ins.Off))
	return m.LoadAt(st, addr, ins.MemSize().Bytes())
}

// LoadAt reads size bytes at an explicit virtual address. The hardware
// simulator uses it for statically addressed accesses whose base
// register was elided.
func (m *MemSpace) LoadAt(st *State, addr uint64, size int) (uint64, error) {
	kind, mem, off, err := m.Resolve(st, addr, size)
	if err != nil {
		return 0, err
	}
	if kind == RegionCtx {
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

// Store executes ST/STX instructions, including atomics.
func (m *MemSpace) Store(st *State, ins ebpf.Instruction) error {
	addr := st.Regs[ins.Dst] + uint64(int64(ins.Off))
	return m.StoreAt(st, ins, addr)
}

// StoreAt executes a store or atomic at an explicit virtual address.
func (m *MemSpace) StoreAt(st *State, ins ebpf.Instruction, addr uint64) error {
	size := ins.MemSize().Bytes()
	kind, mem, off, err := m.Resolve(st, addr, size)
	if err != nil {
		return err
	}
	if kind == RegionCtx {
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
	kind, mem, off, err := m.Resolve(st, addr, n)
	if err != nil {
		return nil, err
	}
	if kind == RegionCtx {
		return nil, fmt.Errorf("helper argument points into xdp_md")
	}
	return mem[off : off+n], nil
}

// ReadBytes copies n bytes starting at addr, for helper key/value
// arguments.
func (m *MemSpace) ReadBytes(st *State, addr uint64, n int) ([]byte, error) {
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

// ReadUint and WriteUint expose the little-endian accessors for the
// simulator's map blocks.
func ReadUint(b []byte, size int) uint64     { return readUint(b, size) }
func WriteUint(b []byte, size int, v uint64) { writeUint(b, size, v) }
