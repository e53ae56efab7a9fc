package ebpf

import (
	"fmt"
	"strings"
)

// String renders the instruction in the kernel-verifier style used
// throughout the paper, e.g. "r2 = *(u32 *)(r1 + 4)" or
// "if r1 == 34525 goto +4".
func (ins Instruction) String() string {
	reg := func(r Register) string { return fmt.Sprintf("r%d", r) }
	reg32 := func(r Register) string { return fmt.Sprintf("w%d", r) }
	memRef := func(base Register, off int16) string {
		switch {
		case off > 0:
			return fmt.Sprintf("(r%d + %d)", base, off)
		case off < 0:
			return fmt.Sprintf("(r%d - %d)", base, -off)
		default:
			return fmt.Sprintf("(r%d + 0)", base)
		}
	}

	switch cls := ins.Class(); cls {
	case ClassALU, ClassALU64:
		dst := reg(ins.Dst)
		if cls == ClassALU {
			dst = reg32(ins.Dst)
		}
		op := ins.ALUOp()
		switch op {
		case ALUNeg:
			return fmt.Sprintf("%s = -%s", dst, dst)
		case ALUEnd:
			dir := "le"
			if ins.Source() == SourceX {
				dir = "be"
			}
			return fmt.Sprintf("%s = %s%d %s", reg(ins.Dst), dir, ins.Imm, reg(ins.Dst))
		}
		var rhs string
		if ins.Source() == SourceX {
			rhs = reg(ins.Src)
			if cls == ClassALU {
				rhs = reg32(ins.Src)
			}
		} else {
			rhs = fmt.Sprintf("%d", ins.Imm)
		}
		return fmt.Sprintf("%s %s %s", dst, op.token(), rhs)

	case ClassLDX:
		return fmt.Sprintf("%s = *(%s *)%s", reg(ins.Dst), ins.MemSize(), memRef(ins.Src, ins.Off))

	case ClassST:
		return fmt.Sprintf("*(%s *)%s = %d", ins.MemSize(), memRef(ins.Dst, ins.Off), ins.Imm)

	case ClassSTX:
		if ins.Mode() == ModeATOMIC {
			op := ins.AtomicOp()
			switch op &^ AtomicFetch {
			case AtomicAdd:
				return lockToken(ins, "+=")
			case AtomicOr:
				return lockToken(ins, "|=")
			case AtomicAnd:
				return lockToken(ins, "&=")
			case AtomicXor:
				return lockToken(ins, "^=")
			}
			return fmt.Sprintf("lock %s *(%s *)(r%d %s) r%d", op, ins.MemSize(), ins.Dst, offToken(ins.Off), ins.Src)
		}
		return fmt.Sprintf("*(%s *)%s = %s", ins.MemSize(), memRef(ins.Dst, ins.Off), reg(ins.Src))

	case ClassLD:
		if ins.IsLoadImm64() {
			if ins.IsLoadOfMapFD() {
				if ins.MapRef != "" {
					return fmt.Sprintf("r%d = map[%s] ll", ins.Dst, ins.MapRef)
				}
				return fmt.Sprintf("r%d = map_fd(%d) ll", ins.Dst, ins.Imm64)
			}
			return fmt.Sprintf("r%d = %d ll", ins.Dst, ins.Imm64)
		}
		return fmt.Sprintf(".inst %#02x", ins.Op)

	case ClassJMP, ClassJMP32:
		op := ins.JumpOp()
		switch op {
		case JumpAlways:
			return fmt.Sprintf("goto %+d", ins.Off)
		case JumpCall:
			return fmt.Sprintf("call %s", HelperID(ins.Imm).Name())
		case JumpExit:
			return "exit"
		}
		lhs := reg(ins.Dst)
		if cls == ClassJMP32 {
			lhs = reg32(ins.Dst)
		}
		var rhs string
		if ins.Source() == SourceX {
			rhs = reg(ins.Src)
			if cls == ClassJMP32 {
				rhs = reg32(ins.Src)
			}
		} else {
			rhs = fmt.Sprintf("%d", ins.Imm)
		}
		return fmt.Sprintf("if %s %s %s goto %+d", lhs, op.token(), rhs, ins.Off)
	}
	return fmt.Sprintf(".inst %#02x", ins.Op)
}

func lockToken(ins Instruction, tok string) string {
	s := fmt.Sprintf("lock *(%s *)(r%d %s) %s r%d", ins.MemSize(), ins.Dst, offToken(ins.Off), tok, ins.Src)
	if ins.AtomicOp()&AtomicFetch != 0 {
		s += " fetch"
	}
	return s
}

func offToken(off int16) string {
	if off < 0 {
		return fmt.Sprintf("- %d", -off)
	}
	return fmt.Sprintf("+ %d", off)
}

// Disassemble renders the whole program with slot-numbered lines in the
// style of Listing 2 of the paper.
func Disassemble(insns []Instruction) string {
	var b strings.Builder
	slot := 0
	for _, ins := range insns {
		fmt.Fprintf(&b, "%4d: %s\n", slot, ins)
		slot += ins.Slots()
	}
	return b.String()
}
