package ebpf

import (
	"strings"
	"testing"
)

func TestEnumStrings(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{ClassLD.String(), "ld"}, {ClassLDX.String(), "ldx"}, {ClassST.String(), "st"},
		{ClassSTX.String(), "stx"}, {ClassALU.String(), "alu32"}, {ClassJMP.String(), "jmp"},
		{ClassJMP32.String(), "jmp32"}, {ClassALU64.String(), "alu64"},
		{ModeIMM.String(), "imm"}, {ModeABS.String(), "abs"}, {ModeIND.String(), "ind"},
		{ModeMEM.String(), "mem"}, {ModeATOMIC.String(), "atomic"},
		{SizeB.String(), "u8"}, {SizeH.String(), "u16"}, {SizeW.String(), "u32"}, {SizeDW.String(), "u64"},
		{XDPAborted.String(), "XDP_ABORTED"}, {XDPDrop.String(), "XDP_DROP"},
		{XDPPass.String(), "XDP_PASS"}, {XDPTx.String(), "XDP_TX"}, {XDPRedirect.String(), "XDP_REDIRECT"},
		{XDPAction(9).String(), "XDP_?"},
		{AtomicAdd.String(), "add"}, {(AtomicAdd | AtomicFetch).String(), "fetch_add"},
		{AtomicXchg.String(), "xchg"}, {AtomicCmpXchg.String(), "cmpxchg"},
		{MapArray.String(), "BPF_MAP_TYPE_ARRAY"}, {MapLPMTrie.String(), "BPF_MAP_TYPE_LPM_TRIE"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
	for _, op := range []ALUOp{ALUAdd, ALUSub, ALUMul, ALUDiv, ALUOr, ALUAnd, ALULsh, ALURsh, ALUNeg, ALUMod, ALUXor, ALUMov, ALUArsh, ALUEnd} {
		if op.String() == "alu?" {
			t.Errorf("ALU op %#x has no name", uint8(op))
		}
	}
	for _, op := range []JumpOp{JumpAlways, JumpEq, JumpGT, JumpGE, JumpSet, JumpNE, JumpSGT, JumpSGE, JumpCall, JumpExit, JumpLT, JumpLE, JumpSLT, JumpSLE} {
		if op.String() == "jmp?" {
			t.Errorf("jump op %#x has no name", uint8(op))
		}
	}
}

func TestDisasmAtomicVariants(t *testing.T) {
	cases := []struct {
		ins  Instruction
		want string
	}{
		{Atomic(SizeW, R1, 4, R2, AtomicOr), "lock *(u32 *)(r1 + 4) |= r2"},
		{Atomic(SizeDW, R1, -8, R2, AtomicAnd), "lock *(u64 *)(r1 - 8) &= r2"},
		{Atomic(SizeDW, R1, 0, R2, AtomicXor|AtomicFetch), "lock *(u64 *)(r1 + 0) ^= r2 fetch"},
		{Atomic(SizeDW, R1, 0, R2, AtomicXchg), "lock xchg *(u64 *)(r1 + 0) r2"},
		{Atomic(SizeDW, R1, 0, R2, AtomicCmpXchg), "lock cmpxchg *(u64 *)(r1 + 0) r2"},
		{Swap(R3, SourceK, 32), "r3 = le32 r3"},
		{Neg64(R4), "r4 = -r4"},
		{ALU64Reg(ALUArsh, R1, R2), "r1 s>>= r2"},
		{Jump32ImmOp(JumpSLE, R1, -4, 2), "if w1 s<= -4 goto +2"},
		{LoadImm64(R2, -1), "r2 = -1 ll"},
	}
	for _, c := range cases {
		if got := c.ins.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestTokenTables(t *testing.T) {
	if ALUAdd.token() != "+=" || ALUMov.token() != "=" || ALUArsh.token() != "s>>=" {
		t.Error("ALU tokens broken")
	}
	if JumpEq.token() != "==" || JumpSLE.token() != "s<=" || JumpSet.token() != "&" {
		t.Error("jump tokens broken")
	}
	if !strings.Contains(Disassemble([]Instruction{Exit()}), "exit") {
		t.Error("Disassemble lost the exit")
	}
}
