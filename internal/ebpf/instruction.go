package ebpf

import (
	"fmt"
)

// Instruction is one decoded eBPF instruction.
//
// The on-wire format packs Op, the two register nibbles, a signed 16-bit
// offset and a signed 32-bit immediate into eight bytes. LDDW (load
// 64-bit immediate) occupies two consecutive eight-byte slots; it is
// represented here as a single Instruction whose Imm64 field carries the
// full constant and whose Size (in slots) is two.
type Instruction struct {
	Op    uint8
	Dst   Register
	Src   Register
	Off   int16
	Imm   int32
	Imm64 int64 // only meaningful for LDDW

	// MapRef optionally names the map a PseudoMapFD LDDW refers to.
	// It is resolved to a concrete map identifier at load time.
	MapRef string
}

// Class returns the instruction class encoded in the opcode.
func (ins Instruction) Class() Class { return Class(ins.Op & 0x07) }

// ALUOp returns the ALU operation; meaningful only for ALU classes.
func (ins Instruction) ALUOp() ALUOp { return ALUOp(ins.Op & 0xf0) }

// JumpOp returns the jump operation; meaningful only for JMP classes.
func (ins Instruction) JumpOp() JumpOp { return JumpOp(ins.Op & 0xf0) }

// Source returns whether the second operand is the immediate (K) or the
// source register (X); meaningful for ALU and JMP classes.
func (ins Instruction) Source() Source { return Source(ins.Op & 0x08) }

// MemSize returns the access width; meaningful for load/store classes.
func (ins Instruction) MemSize() Size { return Size(ins.Op & 0x18) }

// Mode returns the addressing mode; meaningful for load/store classes.
func (ins Instruction) Mode() Mode { return Mode(ins.Op & 0xe0) }

// IsLoadImm64 reports whether the instruction is LDDW.
func (ins Instruction) IsLoadImm64() bool {
	return ins.Class() == ClassLD && ins.Mode() == ModeIMM && ins.MemSize() == SizeDW
}

// IsLoadOfMapFD reports whether the instruction loads a map reference.
func (ins Instruction) IsLoadOfMapFD() bool {
	return ins.IsLoadImm64() && ins.Src == PseudoMapFD
}

// IsAtomic reports whether the instruction is an atomic read-modify-write.
func (ins Instruction) IsAtomic() bool {
	return ins.Class() == ClassSTX && ins.Mode() == ModeATOMIC
}

// AtomicOp returns the atomic operation selector from the immediate.
func (ins Instruction) AtomicOp() AtomicOp { return AtomicOp(ins.Imm) }

// IsCall reports whether the instruction is a helper call.
func (ins Instruction) IsCall() bool {
	return ins.Class() == ClassJMP && ins.JumpOp() == JumpCall
}

// IsExit reports whether the instruction terminates the program.
func (ins Instruction) IsExit() bool {
	return ins.Class() == ClassJMP && ins.JumpOp() == JumpExit
}

// IsBranch reports whether the instruction is a (conditional or
// unconditional) branch, excluding call and exit.
func (ins Instruction) IsBranch() bool {
	if !ins.Class().IsJump() {
		return false
	}
	op := ins.JumpOp()
	return op != JumpCall && op != JumpExit
}

// IsConditional reports whether the instruction is a conditional branch.
func (ins Instruction) IsConditional() bool {
	return ins.IsBranch() && ins.JumpOp() != JumpAlways
}

// Slots returns the number of eight-byte instruction slots the
// instruction occupies: two for LDDW, one otherwise.
func (ins Instruction) Slots() int {
	if ins.IsLoadImm64() {
		return 2
	}
	return 1
}

// Validate checks the structural well-formedness of a single instruction
// (register ranges, known opcodes, supported modes). It does not perform
// program-level checks such as jump-target validity; see Program.Validate.
func (ins Instruction) Validate() error {
	if ins.Dst > R10 {
		return fmt.Errorf("ebpf: invalid destination register r%d", ins.Dst)
	}
	switch cls := ins.Class(); cls {
	case ClassALU, ClassALU64:
		op := ins.ALUOp()
		switch op {
		case ALUAdd, ALUSub, ALUMul, ALUDiv, ALUOr, ALUAnd, ALULsh, ALURsh,
			ALUNeg, ALUMod, ALUXor, ALUMov, ALUArsh, ALUEnd:
		default:
			return fmt.Errorf("ebpf: invalid ALU op %#x", ins.Op)
		}
		if ins.Source() == SourceX && ins.Src > R10 {
			return fmt.Errorf("ebpf: invalid source register r%d", ins.Src)
		}
		if op == ALUEnd {
			switch ins.Imm {
			case 16, 32, 64:
			default:
				return fmt.Errorf("ebpf: invalid byte-swap width %d", ins.Imm)
			}
		}
	case ClassJMP, ClassJMP32:
		op := ins.JumpOp()
		switch op {
		case JumpAlways, JumpEq, JumpGT, JumpGE, JumpSet, JumpNE, JumpSGT,
			JumpSGE, JumpLT, JumpLE, JumpSLT, JumpSLE:
			if ins.Source() == SourceX && ins.Src > R10 {
				return fmt.Errorf("ebpf: invalid source register r%d", ins.Src)
			}
		case JumpCall:
			if cls == ClassJMP32 {
				return fmt.Errorf("ebpf: call is invalid in the jmp32 class")
			}
		case JumpExit:
			if cls == ClassJMP32 {
				return fmt.Errorf("ebpf: exit is invalid in the jmp32 class")
			}
		default:
			return fmt.Errorf("ebpf: invalid jump op %#x", ins.Op)
		}
	case ClassLD:
		if !ins.IsLoadImm64() {
			return fmt.Errorf("ebpf: unsupported ld mode %v (legacy ABS/IND loads are not supported)", ins.Mode())
		}
	case ClassLDX:
		if ins.Mode() != ModeMEM {
			return fmt.Errorf("ebpf: unsupported ldx mode %v", ins.Mode())
		}
		if ins.Src > R10 {
			return fmt.Errorf("ebpf: invalid source register r%d", ins.Src)
		}
	case ClassST:
		if ins.Mode() != ModeMEM {
			return fmt.Errorf("ebpf: unsupported st mode %v", ins.Mode())
		}
	case ClassSTX:
		switch ins.Mode() {
		case ModeMEM:
		case ModeATOMIC:
			if s := ins.MemSize(); s != SizeW && s != SizeDW {
				return fmt.Errorf("ebpf: atomic operations require 4- or 8-byte width, got %v", s)
			}
			if !ins.AtomicOp().valid() {
				return fmt.Errorf("ebpf: invalid atomic op %#x", ins.Imm)
			}
		default:
			return fmt.Errorf("ebpf: unsupported stx mode %v", ins.Mode())
		}
		if ins.Src > R10 {
			return fmt.Errorf("ebpf: invalid source register r%d", ins.Src)
		}
	default:
		return fmt.Errorf("ebpf: invalid class %#x", ins.Op)
	}
	return nil
}

// --- constructors -----------------------------------------------------

// aluOpcode assembles an ALU opcode byte.
func aluOpcode(cls Class, op ALUOp, src Source) uint8 {
	return uint8(cls) | uint8(src) | uint8(op)
}

// Mov64Imm returns dst = imm (sign extended to 64 bits).
func Mov64Imm(dst Register, imm int32) Instruction {
	return Instruction{Op: aluOpcode(ClassALU64, ALUMov, SourceK), Dst: dst, Imm: imm}
}

// Mov64Reg returns dst = src.
func Mov64Reg(dst, src Register) Instruction {
	return Instruction{Op: aluOpcode(ClassALU64, ALUMov, SourceX), Dst: dst, Src: src}
}

// Mov32Imm returns w(dst) = imm, zeroing the upper half.
func Mov32Imm(dst Register, imm int32) Instruction {
	return Instruction{Op: aluOpcode(ClassALU, ALUMov, SourceK), Dst: dst, Imm: imm}
}

// Mov32Reg returns w(dst) = w(src), zeroing the upper half.
func Mov32Reg(dst, src Register) Instruction {
	return Instruction{Op: aluOpcode(ClassALU, ALUMov, SourceX), Dst: dst, Src: src}
}

// ALU64Imm returns dst = dst <op> imm on 64 bits.
func ALU64Imm(op ALUOp, dst Register, imm int32) Instruction {
	return Instruction{Op: aluOpcode(ClassALU64, op, SourceK), Dst: dst, Imm: imm}
}

// ALU64Reg returns dst = dst <op> src on 64 bits.
func ALU64Reg(op ALUOp, dst, src Register) Instruction {
	return Instruction{Op: aluOpcode(ClassALU64, op, SourceX), Dst: dst, Src: src}
}

// ALU32Imm returns w(dst) = w(dst) <op> imm on 32 bits.
func ALU32Imm(op ALUOp, dst Register, imm int32) Instruction {
	return Instruction{Op: aluOpcode(ClassALU, op, SourceK), Dst: dst, Imm: imm}
}

// ALU32Reg returns w(dst) = w(dst) <op> w(src) on 32 bits.
func ALU32Reg(op ALUOp, dst, src Register) Instruction {
	return Instruction{Op: aluOpcode(ClassALU, op, SourceX), Dst: dst, Src: src}
}

// Neg64 returns dst = -dst.
func Neg64(dst Register) Instruction {
	return Instruction{Op: aluOpcode(ClassALU64, ALUNeg, SourceK), Dst: dst}
}

// Swap returns a byte-order conversion of dst. Source X selects
// conversion to big-endian ("be"), K to little-endian ("le"); width is
// 16, 32 or 64.
func Swap(dst Register, src Source, width int32) Instruction {
	return Instruction{Op: aluOpcode(ClassALU, ALUEnd, src), Dst: dst, Imm: width}
}

// LoadMem returns dst = *(size *)(src + off).
func LoadMem(size Size, dst, src Register, off int16) Instruction {
	return Instruction{Op: uint8(ClassLDX) | uint8(ModeMEM) | uint8(size), Dst: dst, Src: src, Off: off}
}

// StoreMem returns *(size *)(dst + off) = src.
func StoreMem(size Size, dst Register, off int16, src Register) Instruction {
	return Instruction{Op: uint8(ClassSTX) | uint8(ModeMEM) | uint8(size), Dst: dst, Src: src, Off: off}
}

// StoreImm returns *(size *)(dst + off) = imm.
func StoreImm(size Size, dst Register, off int16, imm int32) Instruction {
	return Instruction{Op: uint8(ClassST) | uint8(ModeMEM) | uint8(size), Dst: dst, Off: off, Imm: imm}
}

// Atomic returns an atomic read-modify-write: op is combined with
// AtomicFetch by the caller when the previous value is wanted.
func Atomic(size Size, dst Register, off int16, src Register, op AtomicOp) Instruction {
	return Instruction{Op: uint8(ClassSTX) | uint8(ModeATOMIC) | uint8(size), Dst: dst, Src: src, Off: off, Imm: int32(op)}
}

// LoadImm64 returns dst = imm (full 64 bits, two slots).
func LoadImm64(dst Register, imm int64) Instruction {
	return Instruction{Op: uint8(ClassLD) | uint8(ModeIMM) | uint8(SizeDW), Dst: dst, Imm: int32(imm), Imm64: imm}
}

// LoadMapRef returns dst = &map (a LDDW with a symbolic map reference to
// be resolved at load time).
func LoadMapRef(dst Register, name string) Instruction {
	ins := LoadImm64(dst, 0)
	ins.Src = PseudoMapFD
	ins.MapRef = name
	return ins
}

// JumpImmOp returns "if dst <op> imm goto off".
func JumpImmOp(op JumpOp, dst Register, imm int32, off int16) Instruction {
	return Instruction{Op: uint8(ClassJMP) | uint8(SourceK) | uint8(op), Dst: dst, Imm: imm, Off: off}
}

// JumpRegOp returns "if dst <op> src goto off".
func JumpRegOp(op JumpOp, dst, src Register, off int16) Instruction {
	return Instruction{Op: uint8(ClassJMP) | uint8(SourceX) | uint8(op), Dst: dst, Src: src, Off: off}
}

// Jump32ImmOp returns "if w(dst) <op> imm goto off".
func Jump32ImmOp(op JumpOp, dst Register, imm int32, off int16) Instruction {
	return Instruction{Op: uint8(ClassJMP32) | uint8(SourceK) | uint8(op), Dst: dst, Imm: imm, Off: off}
}

// Ja returns an unconditional "goto off".
func Ja(off int16) Instruction {
	return Instruction{Op: uint8(ClassJMP) | uint8(JumpAlways), Off: off}
}

// Call returns a helper function call.
func Call(helper HelperID) Instruction {
	return Instruction{Op: uint8(ClassJMP) | uint8(JumpCall), Imm: int32(helper)}
}

// Exit returns the program-terminating instruction.
func Exit() Instruction {
	return Instruction{Op: uint8(ClassJMP) | uint8(JumpExit)}
}
