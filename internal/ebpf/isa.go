// Package ebpf implements the eBPF instruction-set architecture: the
// 64-bit instruction encoding, registers, opcode classes, helper function
// identifiers and the XDP program context layout.
//
// The package is the foundation the rest of the repository builds on: the
// assembler (internal/asm) produces ebpf.Program values, the reference
// virtual machine (internal/vm) interprets them, and the eHDL compiler
// (internal/core) turns them into hardware pipelines.
package ebpf

import "fmt"

// Register identifies one of the eleven eBPF general purpose registers.
//
// The eBPF calling convention fixes the roles: R0 holds return values,
// R1-R5 are arguments (scratched by calls), R6-R9 are callee-saved, and
// R10 is the read-only frame pointer to the 512-byte stack.
type Register uint8

// The eBPF register file.
const (
	R0 Register = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10

	// NumRegisters is the size of the eBPF register file.
	NumRegisters = 11
	// PseudoReg is a sentinel for "no register" in textual forms.
	PseudoReg Register = 0xff
)

// StackSize is the size in bytes of the per-invocation eBPF stack frame
// addressed through R10 with negative offsets.
const StackSize = 512

// WordSize is the size in bytes of one eBPF instruction slot. LDDW
// occupies two consecutive slots.
const WordSize = 8

// Class is the low three bits of an opcode and selects the instruction
// family.
type Class uint8

// Instruction classes.
const (
	ClassLD    Class = 0x00 // non-standard loads (LDDW, legacy ABS/IND)
	ClassLDX   Class = 0x01 // load from memory into register
	ClassST    Class = 0x02 // store immediate into memory
	ClassSTX   Class = 0x03 // store register into memory
	ClassALU   Class = 0x04 // 32-bit arithmetic
	ClassJMP   Class = 0x05 // 64-bit jumps, call, exit
	ClassJMP32 Class = 0x06 // 32-bit compare-and-jump
	ClassALU64 Class = 0x07 // 64-bit arithmetic
)

// IsLoad reports whether the class reads from memory.
func (c Class) IsLoad() bool { return c == ClassLD || c == ClassLDX }

// IsStore reports whether the class writes to memory.
func (c Class) IsStore() bool { return c == ClassST || c == ClassSTX }

// IsALU reports whether the class performs register arithmetic.
func (c Class) IsALU() bool { return c == ClassALU || c == ClassALU64 }

// IsJump reports whether the class transfers control.
func (c Class) IsJump() bool { return c == ClassJMP || c == ClassJMP32 }

func (c Class) String() string {
	switch c {
	case ClassLD:
		return "ld"
	case ClassLDX:
		return "ldx"
	case ClassST:
		return "st"
	case ClassSTX:
		return "stx"
	case ClassALU:
		return "alu32"
	case ClassJMP:
		return "jmp"
	case ClassJMP32:
		return "jmp32"
	case ClassALU64:
		return "alu64"
	}
	return "class?"
}

// Source is the operand-source bit of ALU and JMP opcodes: K selects the
// 32-bit immediate, X selects the source register.
type Source uint8

// Operand sources.
const (
	SourceK Source = 0x00
	SourceX Source = 0x08
)

// ALUOp is the operation selector (high four bits) of an ALU/ALU64
// opcode.
type ALUOp uint8

// ALU operations.
const (
	ALUAdd  ALUOp = 0x00
	ALUSub  ALUOp = 0x10
	ALUMul  ALUOp = 0x20
	ALUDiv  ALUOp = 0x30
	ALUOr   ALUOp = 0x40
	ALUAnd  ALUOp = 0x50
	ALULsh  ALUOp = 0x60
	ALURsh  ALUOp = 0x70
	ALUNeg  ALUOp = 0x80
	ALUMod  ALUOp = 0x90
	ALUXor  ALUOp = 0xa0
	ALUMov  ALUOp = 0xb0
	ALUArsh ALUOp = 0xc0
	ALUEnd  ALUOp = 0xd0 // byte-order conversion
)

func (op ALUOp) String() string {
	switch op {
	case ALUAdd:
		return "add"
	case ALUSub:
		return "sub"
	case ALUMul:
		return "mul"
	case ALUDiv:
		return "div"
	case ALUOr:
		return "or"
	case ALUAnd:
		return "and"
	case ALULsh:
		return "lsh"
	case ALURsh:
		return "rsh"
	case ALUNeg:
		return "neg"
	case ALUMod:
		return "mod"
	case ALUXor:
		return "xor"
	case ALUMov:
		return "mov"
	case ALUArsh:
		return "arsh"
	case ALUEnd:
		return "end"
	}
	return "alu?"
}

// token returns the assembler operator for a compound assignment, e.g.
// "+=" for ALUAdd. ALUMov yields "=".
func (op ALUOp) token() string {
	switch op {
	case ALUAdd:
		return "+="
	case ALUSub:
		return "-="
	case ALUMul:
		return "*="
	case ALUDiv:
		return "/="
	case ALUOr:
		return "|="
	case ALUAnd:
		return "&="
	case ALULsh:
		return "<<="
	case ALURsh:
		return ">>="
	case ALUMod:
		return "%="
	case ALUXor:
		return "^="
	case ALUMov:
		return "="
	case ALUArsh:
		return "s>>="
	}
	return "?="
}

// JumpOp is the operation selector (high four bits) of a JMP/JMP32
// opcode.
type JumpOp uint8

// Jump operations.
const (
	JumpAlways JumpOp = 0x00
	JumpEq     JumpOp = 0x10
	JumpGT     JumpOp = 0x20
	JumpGE     JumpOp = 0x30
	JumpSet    JumpOp = 0x40
	JumpNE     JumpOp = 0x50
	JumpSGT    JumpOp = 0x60
	JumpSGE    JumpOp = 0x70
	JumpCall   JumpOp = 0x80
	JumpExit   JumpOp = 0x90
	JumpLT     JumpOp = 0xa0
	JumpLE     JumpOp = 0xb0
	JumpSLT    JumpOp = 0xc0
	JumpSLE    JumpOp = 0xd0
)

func (op JumpOp) String() string {
	switch op {
	case JumpAlways:
		return "ja"
	case JumpEq:
		return "jeq"
	case JumpGT:
		return "jgt"
	case JumpGE:
		return "jge"
	case JumpSet:
		return "jset"
	case JumpNE:
		return "jne"
	case JumpSGT:
		return "jsgt"
	case JumpSGE:
		return "jsge"
	case JumpCall:
		return "call"
	case JumpExit:
		return "exit"
	case JumpLT:
		return "jlt"
	case JumpLE:
		return "jle"
	case JumpSLT:
		return "jslt"
	case JumpSLE:
		return "jsle"
	}
	return "jmp?"
}

// token returns the assembler comparison operator, e.g. "==" for JumpEq.
// Signed comparisons carry an "s" prefix as in the kernel verifier
// output.
func (op JumpOp) token() string {
	switch op {
	case JumpEq:
		return "=="
	case JumpGT:
		return ">"
	case JumpGE:
		return ">="
	case JumpSet:
		return "&"
	case JumpNE:
		return "!="
	case JumpSGT:
		return "s>"
	case JumpSGE:
		return "s>="
	case JumpLT:
		return "<"
	case JumpLE:
		return "<="
	case JumpSLT:
		return "s<"
	case JumpSLE:
		return "s<="
	}
	return "?"
}

// Compare applies the jump comparison to two operand values: the ISA's
// semantics, shared by the interpreter and the compiler's loop-bound
// evaluation.
func (op JumpOp) Compare(lhs, rhs uint64, is32 bool) (bool, error) {
	signed := func(v uint64) int64 {
		if is32 {
			return int64(int32(uint32(v)))
		}
		return int64(v)
	}
	switch op {
	case JumpAlways:
		return true, nil
	case JumpEq:
		return lhs == rhs, nil
	case JumpNE:
		return lhs != rhs, nil
	case JumpGT:
		return lhs > rhs, nil
	case JumpGE:
		return lhs >= rhs, nil
	case JumpLT:
		return lhs < rhs, nil
	case JumpLE:
		return lhs <= rhs, nil
	case JumpSet:
		return lhs&rhs != 0, nil
	case JumpSGT:
		return signed(lhs) > signed(rhs), nil
	case JumpSGE:
		return signed(lhs) >= signed(rhs), nil
	case JumpSLT:
		return signed(lhs) < signed(rhs), nil
	case JumpSLE:
		return signed(lhs) <= signed(rhs), nil
	}
	return false, fmt.Errorf("unsupported comparison %v", op)
}

// Size is the access width selector (bits 3-4) of load/store opcodes.
type Size uint8

// Memory access sizes.
const (
	SizeW  Size = 0x00 // 4 bytes
	SizeH  Size = 0x08 // 2 bytes
	SizeB  Size = 0x10 // 1 byte
	SizeDW Size = 0x18 // 8 bytes
)

// Bytes returns the width of the access in bytes.
func (s Size) Bytes() int {
	switch s {
	case SizeB:
		return 1
	case SizeH:
		return 2
	case SizeW:
		return 4
	case SizeDW:
		return 8
	}
	return 0
}

func (s Size) String() string {
	switch s {
	case SizeB:
		return "u8"
	case SizeH:
		return "u16"
	case SizeW:
		return "u32"
	case SizeDW:
		return "u64"
	}
	return "u?"
}

// Mode is the addressing mode selector (high three bits) of load/store
// opcodes.
type Mode uint8

// Addressing modes.
const (
	ModeIMM    Mode = 0x00 // 64-bit immediate (LDDW)
	ModeABS    Mode = 0x20 // legacy packet access, absolute
	ModeIND    Mode = 0x40 // legacy packet access, indirect
	ModeMEM    Mode = 0x60 // regular load/store
	ModeATOMIC Mode = 0xc0 // atomic read-modify-write
)

func (m Mode) String() string {
	switch m {
	case ModeIMM:
		return "imm"
	case ModeABS:
		return "abs"
	case ModeIND:
		return "ind"
	case ModeMEM:
		return "mem"
	case ModeATOMIC:
		return "atomic"
	}
	return "mode?"
}

// AtomicOp encodes the operation of a ModeATOMIC instruction in the
// immediate field.
type AtomicOp int32

// Atomic operations. Combining with AtomicFetch makes the operation
// return the previous value in the source register.
const (
	AtomicAdd     AtomicOp = 0x00
	AtomicOr      AtomicOp = 0x40
	AtomicAnd     AtomicOp = 0x50
	AtomicXor     AtomicOp = 0xa0
	AtomicFetch   AtomicOp = 0x01
	AtomicXchg    AtomicOp = 0xe1
	AtomicCmpXchg AtomicOp = 0xf1
)

func (a AtomicOp) String() string {
	switch a {
	case AtomicAdd:
		return "add"
	case AtomicOr:
		return "or"
	case AtomicAnd:
		return "and"
	case AtomicXor:
		return "xor"
	case AtomicAdd | AtomicFetch:
		return "fetch_add"
	case AtomicOr | AtomicFetch:
		return "fetch_or"
	case AtomicAnd | AtomicFetch:
		return "fetch_and"
	case AtomicXor | AtomicFetch:
		return "fetch_xor"
	case AtomicXchg:
		return "xchg"
	case AtomicCmpXchg:
		return "cmpxchg"
	}
	return "atomic?"
}

// valid reports whether the atomic operation is one this implementation
// supports.
func (a AtomicOp) valid() bool {
	switch a &^ AtomicFetch {
	case AtomicAdd, AtomicOr, AtomicAnd, AtomicXor:
		return true
	}
	return a == AtomicXchg || a == AtomicCmpXchg
}

// Pseudo source-register values used by LDDW to mark relocations.
const (
	// PseudoMapFD marks a LDDW whose immediate is a map file
	// descriptor to be relocated at load time.
	PseudoMapFD Register = 1
	// PseudoMapValue marks a LDDW that yields a pointer to a map value.
	PseudoMapValue Register = 2
)
