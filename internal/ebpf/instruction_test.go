package ebpf

import (
	"testing"
)

func TestClassPredicates(t *testing.T) {
	cases := []struct {
		ins    Instruction
		class  Class
		load   bool
		store  bool
		alu    bool
		jump   bool
		branch bool
	}{
		{Mov64Imm(R1, 3), ClassALU64, false, false, true, false, false},
		{Mov32Reg(R1, R2), ClassALU, false, false, true, false, false},
		{LoadMem(SizeW, R2, R1, 4), ClassLDX, true, false, false, false, false},
		{StoreMem(SizeW, R10, -4, R3), ClassSTX, false, true, false, false, false},
		{StoreImm(SizeB, R10, -1, 7), ClassST, false, true, false, false, false},
		{JumpImmOp(JumpEq, R1, 34525, 4), ClassJMP, false, false, false, true, true},
		{Jump32ImmOp(JumpNE, R1, 1, 2), ClassJMP32, false, false, false, true, true},
		{Ja(3), ClassJMP, false, false, false, true, true},
		{Call(HelperMapLookupElem), ClassJMP, false, false, false, true, false},
		{Exit(), ClassJMP, false, false, false, true, false},
		{LoadImm64(R1, 1<<40), ClassLD, true, false, false, false, false},
	}
	for _, c := range cases {
		if got := c.ins.Class(); got != c.class {
			t.Errorf("%v: class = %v, want %v", c.ins, got, c.class)
		}
		if got := c.ins.Class().IsLoad(); got != c.load {
			t.Errorf("%v: IsLoad = %v, want %v", c.ins, got, c.load)
		}
		if got := c.ins.Class().IsStore(); got != c.store {
			t.Errorf("%v: IsStore = %v, want %v", c.ins, got, c.store)
		}
		if got := c.ins.Class().IsALU(); got != c.alu {
			t.Errorf("%v: IsALU = %v, want %v", c.ins, got, c.alu)
		}
		if got := c.ins.Class().IsJump(); got != c.jump {
			t.Errorf("%v: IsJump = %v, want %v", c.ins, got, c.jump)
		}
		if got := c.ins.IsBranch(); got != c.branch {
			t.Errorf("%v: IsBranch = %v, want %v", c.ins, got, c.branch)
		}
	}
}

func TestSlots(t *testing.T) {
	if got := LoadImm64(R1, 42).Slots(); got != 2 {
		t.Errorf("lddw slots = %d, want 2", got)
	}
	if got := Mov64Imm(R1, 42).Slots(); got != 1 {
		t.Errorf("mov slots = %d, want 1", got)
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Instruction{
		{Op: uint8(ClassALU64) | 0xe0},             // undefined ALU op
		{Op: uint8(ClassJMP) | 0xe0},               // undefined jump op
		Mov64Reg(R1, 12),                           // source register out of range
		Mov64Imm(Register(12), 0),                  // destination register out of range
		{Op: uint8(ClassLD) | uint8(ModeABS)},      // legacy packet load
		Atomic(SizeH, R1, 0, R2, AtomicAdd),        // atomic on 2 bytes
		Atomic(SizeDW, R1, 0, R2, AtomicOp(0x333)), // undefined atomic op
		Swap(R1, SourceK, 24),                      // invalid byte-swap width
	}
	for _, ins := range bad {
		if err := ins.Validate(); err == nil {
			t.Errorf("Validate(%#v) accepted an invalid instruction", ins)
		}
	}
}

func TestValidateAccepts(t *testing.T) {
	good := []Instruction{
		Mov64Imm(R0, 3),
		ALU64Reg(ALUAdd, R1, R2),
		ALU32Imm(ALULsh, R1, 8),
		LoadMem(SizeB, R2, R1, 12),
		StoreMem(SizeDW, R10, -8, R1),
		StoreImm(SizeW, R10, -4, 0),
		Atomic(SizeDW, R1, 0, R2, AtomicAdd),
		Atomic(SizeW, R1, 0, R2, AtomicAdd|AtomicFetch),
		LoadImm64(R1, 123456789012),
		LoadMapRef(R1, "stats"),
		JumpImmOp(JumpEq, R1, 0, 2),
		JumpRegOp(JumpGT, R1, R2, -4),
		Ja(0),
		Call(HelperMapLookupElem),
		Exit(),
		Swap(R1, SourceX, 16),
		Neg64(R3),
	}
	for _, ins := range good {
		if err := ins.Validate(); err != nil {
			t.Errorf("Validate(%v) = %v, want nil", ins, err)
		}
	}
}

func TestDefsUses(t *testing.T) {
	cases := []struct {
		ins  Instruction
		defs []Register
		uses []Register
	}{
		{Mov64Imm(R1, 3), []Register{R1}, nil},
		{Mov64Reg(R1, R2), []Register{R1}, []Register{R2}},
		{ALU64Reg(ALUAdd, R1, R2), []Register{R1}, []Register{R1, R2}},
		{ALU64Imm(ALUAdd, R2, -4), []Register{R2}, []Register{R2}},
		{LoadMem(SizeW, R2, R1, 4), []Register{R2}, []Register{R1}},
		{StoreMem(SizeW, R10, -4, R3), nil, []Register{R10, R3}},
		{StoreImm(SizeW, R10, -4, 0), nil, []Register{R10}},
		{JumpImmOp(JumpEq, R1, 0, 1), nil, []Register{R1}},
		{JumpRegOp(JumpGT, R1, R5, 1), nil, []Register{R1, R5}},
		{Ja(2), nil, nil},
		{Exit(), nil, []Register{R0}},
		{Call(HelperMapLookupElem), []Register{R0, R1, R2, R3, R4, R5}, []Register{R1, R2, R3, R4, R5}},
		{Atomic(SizeDW, R1, 0, R2, AtomicAdd), nil, []Register{R1, R2}},
		{Atomic(SizeDW, R1, 0, R2, AtomicAdd|AtomicFetch), []Register{R2}, []Register{R1, R2}},
		{Atomic(SizeDW, R1, 0, R2, AtomicXchg), []Register{R2}, []Register{R1, R2}},
		{Atomic(SizeW, R1, 0, R2, AtomicCmpXchg), []Register{R0}, []Register{R0, R1, R2}},
		{Neg64(R3), []Register{R3}, []Register{R3}},
		{Swap(R1, SourceX, 16), []Register{R1}, []Register{R1}},
		{ALU32Reg(ALUXor, R1, R2), []Register{R1}, []Register{R1, R2}},
		{LoadImm64(R3, 5), []Register{R3}, nil},
		{Jump32ImmOp(JumpEq, R4, 1, 1), nil, []Register{R4}},
	}
	for _, c := range cases {
		if got := c.ins.Defs(); !sameRegs(got, c.defs) {
			t.Errorf("%v: Defs = %v, want %v", c.ins, got, c.defs)
		}
		if got := c.ins.Uses(); !sameRegs(got, c.uses) {
			t.Errorf("%v: Uses = %v, want %v", c.ins, got, c.uses)
		}
	}
}

func sameRegs(a, b []Register) bool {
	if len(a) != len(b) {
		return false
	}
	seen := map[Register]int{}
	for _, r := range a {
		seen[r]++
	}
	for _, r := range b {
		seen[r]--
	}
	for _, n := range seen {
		if n != 0 {
			return false
		}
	}
	return true
}

func TestDisasmMatchesPaperStyle(t *testing.T) {
	cases := []struct {
		ins  Instruction
		want string
	}{
		{LoadMem(SizeW, R2, R1, 4), "r2 = *(u32 *)(r1 + 4)"},
		{LoadMem(SizeU8(), R2, R1, 12), "r2 = *(u8 *)(r1 + 12)"},
		{Mov64Imm(R3, 0), "r3 = 0"},
		{StoreMem(SizeW, R10, -4, R3), "*(u32 *)(r10 - 4) = r3"},
		{ALU64Imm(ALULsh, R1, 8), "r1 <<= 8"},
		{ALU64Reg(ALUOr, R1, R2), "r1 |= r2"},
		{JumpImmOp(JumpEq, R1, 34525, 4), "if r1 == 34525 goto +4"},
		{ALU64Imm(ALUAdd, R2, -4), "r2 += -4"},
		{Mov64Reg(R2, R10), "r2 = r10"},
		{Call(1), "call bpf_map_lookup_elem"},
		{JumpImmOp(JumpEq, R1, 0, 2), "if r1 == 0 goto +2"},
		{Atomic(SizeDW, R1, 0, R2, AtomicAdd), "lock *(u64 *)(r1 + 0) += r2"},
		{Exit(), "exit"},
		{Ja(3), "goto +3"},
		{Ja(-2), "goto -2"},
		{Swap(R1, SourceX, 16), "r1 = be16 r1"},
		{LoadMapRef(R1, "stats"), "r1 = map[stats] ll"},
		{Mov32Imm(R1, 7), "w1 = 7"},
		{StoreImm(SizeB, R4, 3, 255), "*(u8 *)(r4 + 3) = 255"},
	}
	for _, c := range cases {
		if got := c.ins.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// SizeU8 avoids a typo-prone literal in the table above.
func SizeU8() Size { return SizeB }

func TestHelperNames(t *testing.T) {
	if got := HelperMapLookupElem.Name(); got != "bpf_map_lookup_elem" {
		t.Errorf("helper 1 name = %q", got)
	}
	if got := HelperID(199).Name(); got != "helper_199" {
		t.Errorf("unknown helper name = %q", got)
	}
	id, ok := HelperByName("bpf_redirect_map")
	if !ok || id != HelperRedirectMap {
		t.Errorf("HelperByName(bpf_redirect_map) = %v, %v", id, ok)
	}
	if !HelperMapUpdateElem.WritesMap() || HelperMapLookupElem.WritesMap() {
		t.Error("WritesMap misclassifies the map helpers")
	}
	if !HelperGetSMPProcessorID.CPUOnly() {
		t.Error("bpf_get_smp_processor_id should be CPU-only")
	}
	if HelperMapLookupElem.PipelineDepth() < 1 {
		t.Error("helper blocks must occupy at least one stage")
	}
}
