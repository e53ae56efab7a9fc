package vm

import (
	"fmt"

	"ehdl/internal/ebpf"
)

// Exported address-space layout, shared with the hardware simulator so
// register values are bit-identical between the golden model and the
// pipeline.
const (
	CtxBase      = ctxBase
	PacketBase   = packetBase
	StackTopAddr = stackTop
)

// State is the architectural state of one program execution: the
// register file, the stack frame and the packet.
type State struct {
	Regs  [ebpf.NumRegisters]uint64
	Stack [ebpf.StackSize]byte
	Pkt   *Packet
}

// newState initialises the architectural inputs for one run over pkt.
func newState(pkt *Packet) *State {
	st := &State{Pkt: pkt}
	st.Regs[ebpf.R1] = CtxBase
	st.Regs[ebpf.R10] = StackTopAddr
	return st
}

// Reset re-arms the state in place for one run over data: registers
// cleared, the architectural inputs (R1, R10) set, the packet re-armed
// through Packet.reset, and the stack cleared over [lo, hi) — the span
// the caller knows every write lands in; the rest has been zero since
// the state was made. A reset state is indistinguishable from
// newState(NewPacket(data)); both pipeline engines recycle their
// per-packet states this way.
func (s *State) Reset(data []byte, lo, hi int) {
	s.Regs = [ebpf.NumRegisters]uint64{}
	clear(s.Stack[lo:hi])
	s.Regs[ebpf.R1] = CtxBase
	s.Regs[ebpf.R10] = StackTopAddr
	if s.Pkt == nil {
		s.Pkt = &Packet{}
	}
	s.Pkt.reset(data)
}

// CopyFrom makes s a deep copy of o (for pipeline flush snapshots),
// reusing s's packet buffer when it is large enough. Of the stack only
// [lo, hi) is copied: the span outside which both are still zero.
func (s *State) CopyFrom(o *State, lo, hi int) {
	s.Regs = o.Regs
	copy(s.Stack[lo:hi], o.Stack[lo:hi])
	if s.Pkt == nil {
		s.Pkt = &Packet{}
	}
	s.Pkt.copyFrom(o.Pkt)
}

// EvalALU computes one ALU/ALU64 instruction over explicit operand
// values, returning the new destination value. It is a pure function of
// its inputs.
func EvalALU(ins ebpf.Instruction, dst, src uint64) (uint64, error) {
	is64 := ins.Class() == ebpf.ClassALU64
	op := ins.ALUOp()
	if op == ebpf.ALUEnd {
		// Byte-order conversions read the full register regardless of
		// class and truncate to their own width.
		return byteSwap(dst, ins.Imm, ins.Source() == ebpf.SourceX), nil
	}
	if !is64 {
		src = uint64(uint32(src))
		dst = uint64(uint32(dst))
	}
	var out uint64
	switch op {
	case ebpf.ALUAdd:
		out = dst + src
	case ebpf.ALUSub:
		out = dst - src
	case ebpf.ALUMul:
		out = dst * src
	case ebpf.ALUDiv:
		if src == 0 {
			out = 0
		} else {
			out = dst / src
		}
	case ebpf.ALUMod:
		if src == 0 {
			out = dst
		} else {
			out = dst % src
		}
	case ebpf.ALUOr:
		out = dst | src
	case ebpf.ALUAnd:
		out = dst & src
	case ebpf.ALUXor:
		out = dst ^ src
	case ebpf.ALULsh:
		out = dst << (src & shiftMask(is64))
	case ebpf.ALURsh:
		out = dst >> (src & shiftMask(is64))
	case ebpf.ALUArsh:
		if is64 {
			out = uint64(int64(dst) >> (src & 63))
		} else {
			out = uint64(uint32(int32(uint32(dst)) >> (src & 31)))
		}
	case ebpf.ALUNeg:
		out = -dst
	case ebpf.ALUMov:
		out = src
	case ebpf.ALUEnd:
		return byteSwap(dst, ins.Imm, ins.Source() == ebpf.SourceX), nil
	default:
		return 0, fmt.Errorf("unsupported alu op %v", op)
	}
	if !is64 {
		out = uint64(uint32(out))
	}
	return out, nil
}

// execALU applies an ALU instruction to a state in place.
func execALU(st *State, ins ebpf.Instruction) error {
	var src uint64
	if ins.Source() == ebpf.SourceX {
		src = st.Regs[ins.Src]
	} else {
		src = uint64(int64(ins.Imm))
	}
	out, err := EvalALU(ins, st.Regs[ins.Dst], src)
	if err != nil {
		return err
	}
	st.Regs[ins.Dst] = out
	return nil
}

// evalBranch evaluates a conditional branch against a state.
func evalBranch(st *State, ins ebpf.Instruction) (bool, error) {
	is32 := ins.Class() == ebpf.ClassJMP32
	lhs := st.Regs[ins.Dst]
	var rhs uint64
	if ins.Source() == ebpf.SourceX {
		rhs = st.Regs[ins.Src]
	} else {
		rhs = uint64(int64(ins.Imm))
	}
	if is32 {
		lhs = uint64(uint32(lhs))
		rhs = uint64(uint32(rhs))
	}
	return ins.JumpOp().Compare(lhs, rhs, is32)
}

// StackSlice returns the stack bytes at an R10-relative offset.
func (s *State) StackSlice(off int64, size int) ([]byte, error) {
	lo := int(off) + ebpf.StackSize
	if lo < 0 || lo+size > ebpf.StackSize {
		return nil, fmt.Errorf("vm: stack slice [%d,%d) out of frame", off, off+int64(size))
	}
	return s.Stack[lo : lo+size], nil
}
