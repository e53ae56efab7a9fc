package fastpath

import (
	"ehdl/internal/core"
	"ehdl/internal/ddg"
	"ehdl/internal/ebpf"
	"ehdl/internal/vm"
)

// specializeLoad compiles a statically addressed load into a direct
// memory access, skipping the virtual-address round trip through
// MemSpace.Resolve. Only cases whose semantics provably match the
// generic path are specialized — anything else (register-relative
// base, out-of-frame static slot, odd xdp_md field, huge offset)
// returns nil and keeps the generic closure with its exact runtime
// error behaviour.
func specializeLoad(pl *core.Pipeline, op *core.Op, fall int) func(m *Machine) error {
	if !op.BaseElided || op.Access == nil {
		return nil
	}
	ins := op.Ins
	size := ins.MemSize().Bytes()
	dst := ins.Dst
	// Stack offsets are frame-relative and negative; the other areas
	// index forward from their base, so a negative or absurd offset
	// keeps the generic path and its runtime error.
	off := int(op.Access.Off)
	if op.Access.Area != ddg.AreaStack && (off < 0 || off > 1<<20) {
		return nil
	}
	switch op.Access.Area {
	case ddg.AreaMap:
		// A value load through the preceding lookup's cached slice: the
		// offset is static and the map's value size bounds it at compile
		// time, so the virtual-address round trip through Resolve is
		// unnecessary. A missed (or absent) lookup errors like the
		// generic path.
		id := op.MapID
		if id < 0 || id >= len(pl.Transformed.Maps) ||
			off+size > pl.Transformed.Maps[id].ValueSize {
			return nil
		}
		return func(m *Machine) error {
			val := m.lookupVal[id]
			if val == nil {
				return errNoLookup
			}
			m.st.Regs[dst] = vm.ReadUint(val[off:], size)
			if fall >= 0 {
				m.enable(fall)
			}
			return nil
		}
	case ddg.AreaStack:
		lo := ebpf.StackSize + int(op.Access.Off)
		if lo < 0 || lo+size > ebpf.StackSize {
			return nil
		}
		return func(m *Machine) error {
			m.st.Regs[dst] = vm.ReadUint(m.st.Stack[lo:], size)
			if fall >= 0 {
				m.enable(fall)
			}
			return nil
		}
	case ddg.AreaPacket:
		// The hardware bounds check: an access past the data end latches
		// the OOB verdict, exactly like the generic path's fault on a
		// Resolve error (off is data-relative and non-negative, so the
		// below-head case cannot arise).
		return func(m *Machine) error {
			b := m.st.Pkt.Bytes()
			if off+size > len(b) {
				m.fault()
				return nil
			}
			m.st.Regs[dst] = vm.ReadUint(b[off:], size)
			if fall >= 0 {
				m.enable(fall)
			}
			return nil
		}
	case ddg.AreaCtx:
		if size != 4 {
			return nil
		}
		switch off {
		case ebpf.XDPMDData, ebpf.XDPMDDataMeta:
			return func(m *Machine) error {
				m.st.Regs[dst] = vm.PacketBase + uint64(m.st.Pkt.HeadIndex())
				if fall >= 0 {
					m.enable(fall)
				}
				return nil
			}
		case ebpf.XDPMDDataEnd:
			return func(m *Machine) error {
				pkt := m.st.Pkt
				m.st.Regs[dst] = vm.PacketBase + uint64(pkt.HeadIndex()+pkt.Len())
				if fall >= 0 {
					m.enable(fall)
				}
				return nil
			}
		}
	}
	return nil
}

// specializeStore is specializeLoad's store-side twin. Atomics and
// xdp_md stores keep the generic path (the former for execAtomic's
// fetch/xchg register effects, the latter for its permission error).
func specializeStore(pl *core.Pipeline, op *core.Op, fall int) func(m *Machine) error {
	if !op.BaseElided || op.Access == nil || op.Ins.IsAtomic() {
		return nil
	}
	ins := op.Ins
	size := ins.MemSize().Bytes()
	off := int(op.Access.Off)
	if op.Access.Area != ddg.AreaStack && (off < 0 || off > 1<<20) {
		return nil
	}
	fromImm := ins.Class() == ebpf.ClassST
	imm := uint64(int64(ins.Imm))
	src := ins.Src
	switch op.Access.Area {
	case ddg.AreaMap:
		id := op.MapID
		if id < 0 || id >= len(pl.Transformed.Maps) ||
			off+size > pl.Transformed.Maps[id].ValueSize {
			return nil
		}
		return func(m *Machine) error {
			val := m.lookupVal[id]
			if val == nil {
				return errNoLookup
			}
			v := imm
			if !fromImm {
				v = m.st.Regs[src]
			}
			vm.WriteUint(val[off:], size, v)
			if fall >= 0 {
				m.enable(fall)
			}
			return nil
		}
	case ddg.AreaStack:
		lo := ebpf.StackSize + int(op.Access.Off)
		if lo < 0 || lo+size > ebpf.StackSize {
			return nil
		}
		if fromImm {
			return func(m *Machine) error {
				vm.WriteUint(m.st.Stack[lo:], size, imm)
				if fall >= 0 {
					m.enable(fall)
				}
				return nil
			}
		}
		return func(m *Machine) error {
			vm.WriteUint(m.st.Stack[lo:], size, m.st.Regs[src])
			if fall >= 0 {
				m.enable(fall)
			}
			return nil
		}
	case ddg.AreaPacket:
		return func(m *Machine) error {
			b := m.st.Pkt.Bytes()
			if off+size > len(b) {
				m.fault()
				return nil
			}
			v := imm
			if !fromImm {
				v = m.st.Regs[src]
			}
			vm.WriteUint(b[off:], size, v)
			if fall >= 0 {
				m.enable(fall)
			}
			return nil
		}
	}
	return nil
}

// specializeAtomic compiles the hot non-fetch atomic forms (the
// per-flow counter update every stateful app leans on) against the
// value slice cached by the preceding lookup: the op kind, access
// width and operand register are folded and the map's declared value
// size bounds the offset at compile time, so the read-modify-write
// touches the bytes directly. Fetch/exchange variants and non-map
// areas keep the generic path for execAtomic's register effects.
func specializeAtomic(pl *core.Pipeline, op *core.Op, fall int) func(m *Machine) error {
	if !op.BaseElided || op.Access == nil || op.Access.Area != ddg.AreaMap {
		return nil
	}
	ins := op.Ins
	if !ins.IsAtomic() || ins.AtomicOp()&ebpf.AtomicFetch != 0 {
		return nil
	}
	aop := ins.AtomicOp()
	switch aop {
	case ebpf.AtomicAdd, ebpf.AtomicOr, ebpf.AtomicAnd, ebpf.AtomicXor:
	default:
		return nil
	}
	size := ins.MemSize().Bytes()
	id := op.MapID
	off := int(op.Access.Off)
	src := ins.Src
	if id < 0 || id >= len(pl.Transformed.Maps) ||
		off < 0 || off+size > pl.Transformed.Maps[id].ValueSize {
		return nil
	}
	// The 8-byte add — the canonical per-flow counter — gets a direct
	// unencoded read-modify-write; the rest share a width-generic form.
	if aop == ebpf.AtomicAdd && size == 8 {
		return func(m *Machine) error {
			val := m.lookupVal[id]
			if val == nil {
				return errNoLookup
			}
			b := val[off:]
			vm.WriteUint(b, 8, vm.ReadUint(b, 8)+m.st.Regs[src])
			if fall >= 0 {
				m.enable(fall)
			}
			return nil
		}
	}
	return func(m *Machine) error {
		val := m.lookupVal[id]
		if val == nil {
			return errNoLookup
		}
		b := val[off:]
		old := vm.ReadUint(b, size)
		s := m.st.Regs[src]
		var upd uint64
		switch aop {
		case ebpf.AtomicAdd:
			upd = old + s
		case ebpf.AtomicOr:
			upd = old | s
		case ebpf.AtomicAnd:
			upd = old & s
		case ebpf.AtomicXor:
			upd = old ^ s
		}
		vm.WriteUint(b, size, upd)
		if fall >= 0 {
			m.enable(fall)
		}
		return nil
	}
}
