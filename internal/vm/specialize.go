package vm

import (
	"math/bits"

	"ehdl/internal/ebpf"
)

// SpecializeALU compiles an ALU op — ins and the instructions fused
// behind it, which evaluate combinationally after it in the same stage —
// into one error-free closure, the per-op code of both pipeline engines
// (the hwsim interpreter and the fastpath machine); ExecALU stays the
// reference interpreter's own path, so that leg of the three-way oracle
// is independent of this file.
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
// instruction decoding. The instruction is validated against EvalALU at
// compile time; the un-specialized tail delegates to it with the source
// already routed, which keeps every op bit-identical to ExecALU by
// construction.
func aluFn(ins ebpf.Instruction) (func(st *State), error) {
	if _, err := EvalALU(ins, 0, 1); err != nil {
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
			out, _ := EvalALU(ins, st.Regs[dst], st.Regs[src])
			st.Regs[dst] = out
		}, nil
	}
	return func(st *State) {
		out, _ := EvalALU(ins, st.Regs[dst], imm)
		st.Regs[dst] = out
	}, nil
}

// SpecializeBranch compiles one conditional branch into an error-free
// predicate closure, with the comparison op, operand routing and width
// folded at compile time. Validated against Compare; the generic
// tail delegates to it, bit-identical to EvalBranch.
func SpecializeBranch(ins ebpf.Instruction) (func(st *State) bool, error) {
	is32 := ins.Class() == ebpf.ClassJMP32
	jop := ins.JumpOp()
	if _, err := Compare(jop, 0, 0, is32); err != nil {
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
		ok, _ := Compare(jop, lhs, rhs, is32)
		return ok
	}, nil
}
