package ebpf

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMarshalRoundTrip(t *testing.T) {
	insns := []Instruction{
		Mov64Imm(R1, -7),
		LoadMem(SizeW, R2, R1, 4),
		LoadImm64(R3, 0x1234_5678_9abc_def0),
		LoadImm64(R4, -1),
		JumpImmOp(JumpEq, R1, 34525, 4),
		Atomic(SizeDW, R1, 0, R2, AtomicAdd),
		Call(HelperMapLookupElem),
		Exit(),
	}
	data := MarshalInstructions(insns)
	wantLen := 0
	for _, ins := range insns {
		wantLen += ins.Slots() * WordSize
	}
	if len(data) != wantLen {
		t.Fatalf("encoded length %d, want %d", len(data), wantLen)
	}
	got, err := UnmarshalInstructions(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(insns) {
		t.Fatalf("decoded %d instructions, want %d", len(got), len(insns))
	}
	for i := range insns {
		want := insns[i]
		want.MapRef = "" // not part of the wire format
		if got[i] != want {
			t.Errorf("instruction %d: got %+v, want %+v", i, got[i], want)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := UnmarshalInstructions(make([]byte, 7)); err == nil {
		t.Error("UnmarshalInstructions accepted a 7-byte stream")
	}
	// LDDW truncated to a single slot.
	data := LoadImm64(R1, 1).marshal(nil)[:8]
	if _, err := UnmarshalInstructions(data); err == nil {
		t.Error("UnmarshalInstructions accepted a truncated lddw")
	}
	// LDDW with a corrupted second slot opcode.
	data = LoadImm64(R1, 1).marshal(nil)
	data[8] = 0x07
	if _, _, err := unmarshal(data); err == nil {
		t.Error("Unmarshal accepted a lddw with a non-zero second opcode")
	}
}

// randomValidInstruction draws instructions from the constructor space so
// that every generated value is encodable.
func randomValidInstruction(r *rand.Rand) Instruction {
	reg := func() Register { return Register(r.Intn(11)) }
	off := func() int16 { return int16(r.Intn(1<<16) - 1<<15) }
	imm := func() int32 { return int32(r.Uint32()) }
	aluOps := []ALUOp{ALUAdd, ALUSub, ALUMul, ALUDiv, ALUOr, ALUAnd, ALULsh, ALURsh, ALUMod, ALUXor, ALUMov, ALUArsh}
	jmpOps := []JumpOp{JumpEq, JumpGT, JumpGE, JumpSet, JumpNE, JumpSGT, JumpSGE, JumpLT, JumpLE, JumpSLT, JumpSLE}
	sizes := []Size{SizeB, SizeH, SizeW, SizeDW}
	switch r.Intn(12) {
	case 0:
		return ALU64Imm(aluOps[r.Intn(len(aluOps))], reg(), imm())
	case 1:
		return ALU64Reg(aluOps[r.Intn(len(aluOps))], reg(), reg())
	case 2:
		return ALU32Imm(aluOps[r.Intn(len(aluOps))], reg(), imm())
	case 3:
		return LoadMem(sizes[r.Intn(len(sizes))], reg(), reg(), off())
	case 4:
		return StoreMem(sizes[r.Intn(len(sizes))], reg(), off(), reg())
	case 5:
		return StoreImm(sizes[r.Intn(len(sizes))], reg(), off(), imm())
	case 6:
		return JumpImmOp(jmpOps[r.Intn(len(jmpOps))], reg(), imm(), off())
	case 7:
		return JumpRegOp(jmpOps[r.Intn(len(jmpOps))], reg(), reg(), off())
	case 8:
		return LoadImm64(reg(), int64(r.Uint64()))
	case 9:
		return Atomic([]Size{SizeW, SizeDW}[r.Intn(2)], reg(), off(), reg(), AtomicAdd)
	case 10:
		return Call(HelperID(r.Intn(128)))
	default:
		return Exit()
	}
}

func TestPropertyEncodeDecodeRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ins := randomValidInstruction(r)
		data := ins.marshal(nil)
		got, n, err := unmarshal(data)
		if err != nil || n != len(data) {
			return false
		}
		return got == ins
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropertyStreamRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(64)
		insns := make([]Instruction, n)
		for i := range insns {
			insns[i] = randomValidInstruction(r)
		}
		data := MarshalInstructions(insns)
		got, err := UnmarshalInstructions(data)
		if err != nil || len(got) != len(insns) {
			return false
		}
		for i := range insns {
			if got[i] != insns[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropertyValidInstructionsValidate(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ins := randomValidInstruction(r)
		// Division immediates of zero are structurally valid at the
		// instruction level; the VM rejects them at run time.
		return ins.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
