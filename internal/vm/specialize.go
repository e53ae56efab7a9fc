package vm

import (
	"errors"
	"math/bits"

	"ehdl/internal/ebpf"
)

// SpecializeALU compiles an ALU op — ins and the instructions fused
// behind it, which evaluate combinationally after it in the same stage —
// into one error-free closure, the per-op code of hwsim's execution
// tables (the pipelined interpreter's and the one-burst table under the
// fastpath machine); execALU stays the reference interpreter's own path,
// so that leg of the three-way oracle is independent of this file.
func SpecializeALU(ins ebpf.Instruction, fused ...ebpf.Instruction) (func(st *State), error) {
	fn, err := aluFn(ins)
	if err != nil || len(fused) == 0 {
		return fn, err
	}
	tail := make([]func(st *State), len(fused))
	for i, f := range fused {
		if tail[i], err = aluFn(f); err != nil {
			return nil, err
		}
	}
	return func(st *State) {
		fn(st)
		for _, f := range tail {
			f(st)
		}
	}, nil
}

// aluFn specializes one ALU instruction: the operand routing (register
// vs folded immediate), the operation and the width truncation are all
// decided here, so the per-packet path is a single direct call with no
// instruction decoding. The instruction is validated against evalALU at
// compile time; the un-specialized tail delegates to it with the source
// already routed, which keeps every op bit-identical to execALU by
// construction.
func aluFn(ins ebpf.Instruction) (func(st *State), error) {
	if _, err := evalALU(ins, 0, 1); err != nil {
		return nil, err
	}
	is64 := ins.Class() == ebpf.ClassALU64
	op := ins.ALUOp()
	dst := ins.Dst
	src := ins.Src
	imm := uint64(int64(ins.Imm))
	fromReg := ins.Source() == ebpf.SourceX

	if op == ebpf.ALUEnd {
		// Byte-order conversion: width and direction folded. The host
		// model is little-endian, so to-LE is a pure truncation.
		toBE := ins.Source() == ebpf.SourceX
		switch {
		case ins.Imm == 16 && toBE:
			return func(st *State) { st.Regs[dst] = uint64(bits.ReverseBytes16(uint16(st.Regs[dst]))) }, nil
		case ins.Imm == 16:
			return func(st *State) { st.Regs[dst] = uint64(uint16(st.Regs[dst])) }, nil
		case ins.Imm == 32 && toBE:
			return func(st *State) { st.Regs[dst] = uint64(bits.ReverseBytes32(uint32(st.Regs[dst]))) }, nil
		case ins.Imm == 32:
			return func(st *State) { st.Regs[dst] = uint64(uint32(st.Regs[dst])) }, nil
		case ins.Imm == 64 && toBE:
			return func(st *State) { st.Regs[dst] = bits.ReverseBytes64(st.Regs[dst]) }, nil
		}
	} else {
		switch {
		case op == ebpf.ALUMov && is64 && !fromReg:
			return func(st *State) { st.Regs[dst] = imm }, nil
		case op == ebpf.ALUMov && is64 && fromReg:
			return func(st *State) { st.Regs[dst] = st.Regs[src] }, nil
		case op == ebpf.ALUMov && !is64 && !fromReg:
			v := uint64(uint32(imm))
			return func(st *State) { st.Regs[dst] = v }, nil
		case op == ebpf.ALUMov && !is64 && fromReg:
			return func(st *State) { st.Regs[dst] = uint64(uint32(st.Regs[src])) }, nil
		case op == ebpf.ALUAdd && is64 && !fromReg:
			return func(st *State) { st.Regs[dst] += imm }, nil
		case op == ebpf.ALUAdd && is64 && fromReg:
			return func(st *State) { st.Regs[dst] += st.Regs[src] }, nil
		case op == ebpf.ALUAdd && !is64 && !fromReg:
			return func(st *State) { st.Regs[dst] = uint64(uint32(st.Regs[dst]) + uint32(imm)) }, nil
		case op == ebpf.ALUAdd && !is64 && fromReg:
			return func(st *State) { st.Regs[dst] = uint64(uint32(st.Regs[dst]) + uint32(st.Regs[src])) }, nil
		case op == ebpf.ALUSub && is64 && !fromReg:
			return func(st *State) { st.Regs[dst] -= imm }, nil
		case op == ebpf.ALUSub && is64 && fromReg:
			return func(st *State) { st.Regs[dst] -= st.Regs[src] }, nil
		case op == ebpf.ALUSub && !is64 && !fromReg:
			return func(st *State) { st.Regs[dst] = uint64(uint32(st.Regs[dst]) - uint32(imm)) }, nil
		case op == ebpf.ALUSub && !is64 && fromReg:
			return func(st *State) { st.Regs[dst] = uint64(uint32(st.Regs[dst]) - uint32(st.Regs[src])) }, nil
		case op == ebpf.ALUAnd && is64 && !fromReg:
			return func(st *State) { st.Regs[dst] &= imm }, nil
		case op == ebpf.ALUAnd && is64 && fromReg:
			return func(st *State) { st.Regs[dst] &= st.Regs[src] }, nil
		case op == ebpf.ALUAnd && !is64 && !fromReg:
			v := uint64(uint32(imm))
			return func(st *State) { st.Regs[dst] = uint64(uint32(st.Regs[dst])) & v }, nil
		case op == ebpf.ALUAnd && !is64 && fromReg:
			return func(st *State) { st.Regs[dst] = uint64(uint32(st.Regs[dst]) & uint32(st.Regs[src])) }, nil
		case op == ebpf.ALUOr && is64 && !fromReg:
			return func(st *State) { st.Regs[dst] |= imm }, nil
		case op == ebpf.ALUOr && is64 && fromReg:
			return func(st *State) { st.Regs[dst] |= st.Regs[src] }, nil
		case op == ebpf.ALUOr && !is64 && !fromReg:
			v := uint64(uint32(imm))
			return func(st *State) { st.Regs[dst] = uint64(uint32(st.Regs[dst])) | v }, nil
		case op == ebpf.ALUOr && !is64 && fromReg:
			return func(st *State) { st.Regs[dst] = uint64(uint32(st.Regs[dst]) | uint32(st.Regs[src])) }, nil
		case op == ebpf.ALUXor && is64 && !fromReg:
			return func(st *State) { st.Regs[dst] ^= imm }, nil
		case op == ebpf.ALUXor && is64 && fromReg:
			return func(st *State) { st.Regs[dst] ^= st.Regs[src] }, nil
		case op == ebpf.ALULsh && is64 && !fromReg:
			sh := imm & 63
			return func(st *State) { st.Regs[dst] <<= sh }, nil
		case op == ebpf.ALULsh && is64 && fromReg:
			return func(st *State) { st.Regs[dst] <<= st.Regs[src] & 63 }, nil
		case op == ebpf.ALURsh && is64 && !fromReg:
			sh := imm & 63
			return func(st *State) { st.Regs[dst] >>= sh }, nil
		case op == ebpf.ALURsh && is64 && fromReg:
			return func(st *State) { st.Regs[dst] >>= st.Regs[src] & 63 }, nil
		case op == ebpf.ALUArsh && is64 && !fromReg:
			sh := imm & 63
			return func(st *State) { st.Regs[dst] = uint64(int64(st.Regs[dst]) >> sh) }, nil
		case op == ebpf.ALUNeg && is64:
			return func(st *State) { st.Regs[dst] = -st.Regs[dst] }, nil
		}
	}
	if fromReg {
		return func(st *State) {
			out, _ := evalALU(ins, st.Regs[dst], st.Regs[src])
			st.Regs[dst] = out
		}, nil
	}
	return func(st *State) {
		out, _ := evalALU(ins, st.Regs[dst], imm)
		st.Regs[dst] = out
	}, nil
}

// SpecializeBranch compiles one conditional branch into an error-free
// predicate closure, with the comparison op, operand routing and width
// folded at compile time. Validated against Compare; the generic
// tail delegates to it, bit-identical to evalBranch.
func SpecializeBranch(ins ebpf.Instruction) (func(st *State) bool, error) {
	is32 := ins.Class() == ebpf.ClassJMP32
	jop := ins.JumpOp()
	if _, err := jop.Compare(0, 0, is32); err != nil {
		return nil, err
	}
	dst := ins.Dst
	src := ins.Src
	imm := uint64(int64(ins.Imm))
	fromReg := ins.Source() == ebpf.SourceX

	if !is32 {
		switch {
		case jop == ebpf.JumpEq && !fromReg:
			return func(st *State) bool { return st.Regs[dst] == imm }, nil
		case jop == ebpf.JumpEq && fromReg:
			return func(st *State) bool { return st.Regs[dst] == st.Regs[src] }, nil
		case jop == ebpf.JumpNE && !fromReg:
			return func(st *State) bool { return st.Regs[dst] != imm }, nil
		case jop == ebpf.JumpNE && fromReg:
			return func(st *State) bool { return st.Regs[dst] != st.Regs[src] }, nil
		case jop == ebpf.JumpGT && !fromReg:
			return func(st *State) bool { return st.Regs[dst] > imm }, nil
		case jop == ebpf.JumpGE && !fromReg:
			return func(st *State) bool { return st.Regs[dst] >= imm }, nil
		case jop == ebpf.JumpLT && !fromReg:
			return func(st *State) bool { return st.Regs[dst] < imm }, nil
		case jop == ebpf.JumpLE && !fromReg:
			return func(st *State) bool { return st.Regs[dst] <= imm }, nil
		case jop == ebpf.JumpSGT && !fromReg:
			rhs := int64(ins.Imm)
			return func(st *State) bool { return int64(st.Regs[dst]) > rhs }, nil
		case jop == ebpf.JumpSLT && !fromReg:
			rhs := int64(ins.Imm)
			return func(st *State) bool { return int64(st.Regs[dst]) < rhs }, nil
		case jop == ebpf.JumpSet && !fromReg:
			return func(st *State) bool { return st.Regs[dst]&imm != 0 }, nil
		case jop == ebpf.JumpGT && fromReg:
			return func(st *State) bool { return st.Regs[dst] > st.Regs[src] }, nil
		case jop == ebpf.JumpLT && fromReg:
			return func(st *State) bool { return st.Regs[dst] < st.Regs[src] }, nil
		}
	}
	rhsOf := func(st *State) uint64 {
		if fromReg {
			return st.Regs[src]
		}
		return imm
	}
	return func(st *State) bool {
		lhs := st.Regs[dst]
		rhs := rhsOf(st)
		if is32 {
			lhs = uint64(uint32(lhs))
			rhs = uint64(uint32(rhs))
		}
		ok, _ := jop.Compare(lhs, rhs, is32)
		return ok
	}, nil
}

// MemFn is a statically addressed load, store or atomic compiled to a
// direct access — the memory half of the per-op code hwsim's tables
// run. val is the value slice of the map lookup the access goes
// through (the engine keeps it beside the pointer it put in R0); the
// other areas ignore it. The only errors are errNoLookup (map area, nil
// val) and ErrPacketBounds (packet area, past the data end), both bare.
type MemFn func(st *State, val []byte) error

// The two ways a statically addressed access fails. An engine answers
// ErrPacketBounds with the hardware bounds check's verdict, exactly as
// it answers any Resolve error on a packet-area access.
var (
	errNoLookup     = errors.New("map access without a preceding lookup hit")
	ErrPacketBounds = errors.New("packet access outside data")
)

// SpecializeMem compiles an access of ins whose base register the
// compiler elided — it lands at the static offset off of area (from R10
// for the stack, from the data pointer, the xdp_md base or the looked-up
// value otherwise) — skipping the virtual-address round trip through
// MemSpace.Resolve; valueSize is the declared value size of the map
// behind a RegionMapValue access. Only cases whose semantics provably
// match LoadAt/StoreAt are specialised: anything else (out-of-frame
// slot, odd xdp_md field, huge offset, a store to xdp_md, an atomic
// that fetches or lands outside map memory) returns nil and the engine
// keeps its generic path with that path's exact run-time error.
func SpecializeMem(ins ebpf.Instruction, area Region, off int64, valueSize int) MemFn {
	size, o := ins.MemSize().Bytes(), int(off)
	switch area {
	case RegionStack: // frame-relative, negative
		if o += ebpf.StackSize; o < 0 || o+size > ebpf.StackSize {
			return nil
		}
	case RegionMapValue:
		if o < 0 || o+size > valueSize {
			return nil
		}
	default:
		if o < 0 || o > 1<<20 {
			return nil
		}
	}
	switch {
	case ins.Class() == ebpf.ClassLDX:
		return loadFn(area, ins.Dst, o, size)
	case ins.IsAtomic():
		if area == RegionMapValue {
			return atomicFn(ins.AtomicOp(), ins.Src, o, size)
		}
	case ins.Class() == ebpf.ClassST:
		return storeFn(area, true, 0, uint64(int64(ins.Imm)), o, size)
	case ins.Class() == ebpf.ClassSTX:
		return storeFn(area, false, ins.Src, 0, o, size)
	}
	return nil
}

func loadFn(area Region, dst ebpf.Register, off, size int) MemFn {
	switch area {
	case RegionStack:
		return func(st *State, _ []byte) error {
			st.Regs[dst] = readUint(st.Stack[off:], size)
			return nil
		}
	case RegionMapValue:
		return func(st *State, val []byte) error {
			if val == nil {
				return errNoLookup
			}
			st.Regs[dst] = readUint(val[off:], size)
			return nil
		}
	case RegionPacket:
		// off is data-relative and non-negative, so only the data end
		// can be crossed.
		return func(st *State, _ []byte) error {
			b := st.Pkt.Bytes()
			if off+size > len(b) {
				return ErrPacketBounds
			}
			st.Regs[dst] = readUint(b[off:], size)
			return nil
		}
	case RegionCtx:
		switch {
		case size != 4:
		case off == ebpf.XDPMDData, off == ebpf.XDPMDDataMeta:
			return func(st *State, _ []byte) error {
				st.Regs[dst] = packetBase + uint64(st.Pkt.head)
				return nil
			}
		case off == ebpf.XDPMDDataEnd:
			return func(st *State, _ []byte) error {
				st.Regs[dst] = packetBase + uint64(st.Pkt.end)
				return nil
			}
		}
	}
	return nil
}

func storeFn(area Region, fromImm bool, src ebpf.Register, imm uint64, off, size int) MemFn {
	// imm is the stored value unless a register supplies it.
	switch area {
	case RegionStack:
		return func(st *State, _ []byte) error {
			v := imm
			if !fromImm {
				v = st.Regs[src]
			}
			writeUint(st.Stack[off:], size, v)
			return nil
		}
	case RegionMapValue:
		return func(st *State, val []byte) error {
			if val == nil {
				return errNoLookup
			}
			v := imm
			if !fromImm {
				v = st.Regs[src]
			}
			writeUint(val[off:], size, v)
			return nil
		}
	case RegionPacket:
		return func(st *State, _ []byte) error {
			b := st.Pkt.Bytes()
			if off+size > len(b) {
				return ErrPacketBounds
			}
			v := imm
			if !fromImm {
				v = st.Regs[src]
			}
			writeUint(b[off:], size, v)
			return nil
		}
	}
	return nil
}

// atomicFn compiles the non-fetch atomics on map memory — the per-flow
// counter update every stateful app leans on. The fetch and exchange
// forms keep execAtomic for their register effects.
func atomicFn(op ebpf.AtomicOp, src ebpf.Register, off, size int) MemFn {
	var apply func(old, s uint64) uint64
	switch op {
	case ebpf.AtomicAdd:
		if size == 8 { // the canonical counter: no width switch at all
			return func(st *State, val []byte) error {
				if val == nil {
					return errNoLookup
				}
				b := val[off:]
				writeUint(b, 8, readUint(b, 8)+st.Regs[src])
				return nil
			}
		}
		apply = func(old, s uint64) uint64 { return old + s }
	case ebpf.AtomicOr:
		apply = func(old, s uint64) uint64 { return old | s }
	case ebpf.AtomicAnd:
		apply = func(old, s uint64) uint64 { return old & s }
	case ebpf.AtomicXor:
		apply = func(old, s uint64) uint64 { return old ^ s }
	default:
		return nil
	}
	return func(st *State, val []byte) error {
		if val == nil {
			return errNoLookup
		}
		b := val[off:]
		writeUint(b, size, apply(readUint(b, size), st.Regs[src]))
		return nil
	}
}
