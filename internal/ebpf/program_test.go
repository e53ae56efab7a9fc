package ebpf

import (
	"strings"
	"testing"
)

func statsMap() MapSpec {
	return MapSpec{Name: "stats", Kind: MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 4}
}

func validProgram() *Program {
	return &Program{
		Name: "toy",
		Maps: []MapSpec{statsMap()},
		Instructions: []Instruction{
			LoadMem(SizeW, R2, R1, 4),
			LoadMem(SizeW, R1, R1, 0),
			Mov64Imm(R3, 0),
			StoreMem(SizeW, R10, -4, R3),
			JumpImmOp(JumpEq, R2, 0, 1),
			Mov64Imm(R0, 1),
			Exit(),
		},
	}
}

func TestProgramValidateOK(t *testing.T) {
	if err := validProgram().Validate(); err != nil {
		t.Fatalf("Validate() = %v", err)
	}
}

func TestProgramValidateRejects(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		p := &Program{Name: "empty"}
		if err := p.Validate(); err == nil {
			t.Error("accepted an empty program")
		}
	})
	t.Run("fall off end", func(t *testing.T) {
		p := validProgram()
		p.Instructions = p.Instructions[:len(p.Instructions)-1]
		if err := p.Validate(); err == nil {
			t.Error("accepted a program without a trailing exit")
		}
	})
	t.Run("jump out of range", func(t *testing.T) {
		p := validProgram()
		p.Instructions[4] = JumpImmOp(JumpEq, R2, 0, 100)
		if err := p.Validate(); err == nil {
			t.Error("accepted an out-of-range jump")
		}
	})
	t.Run("jump into lddw", func(t *testing.T) {
		p := &Program{
			Name: "bad",
			Instructions: []Instruction{
				Ja(1), // lands on the second slot of the lddw
				LoadImm64(R1, 7),
				Exit(),
			},
		}
		if err := p.Validate(); err == nil {
			t.Error("accepted a jump into the middle of a lddw")
		}
	})
	t.Run("writes r10", func(t *testing.T) {
		p := validProgram()
		p.Instructions[2] = Mov64Imm(R10, 0)
		if err := p.Validate(); err == nil {
			t.Error("accepted a write to r10")
		}
	})
	t.Run("undeclared map", func(t *testing.T) {
		p := validProgram()
		p.Instructions[2] = LoadMapRef(R3, "nope")
		if err := p.Validate(); err == nil {
			t.Error("accepted an undeclared map reference")
		}
	})
	t.Run("duplicate map", func(t *testing.T) {
		p := validProgram()
		p.Maps = append(p.Maps, statsMap())
		if err := p.Validate(); err == nil {
			t.Error("accepted duplicate map names")
		}
	})
	t.Run("bad map spec", func(t *testing.T) {
		p := validProgram()
		p.Maps[0].KeySize = 0
		if err := p.Validate(); err == nil {
			t.Error("accepted a zero key size")
		}
	})
	t.Run("LPM trie key without address bytes", func(t *testing.T) {
		p := validProgram()
		p.Maps[0].Kind = MapLPMTrie // 4-byte key: all prefix length
		if err := p.Validate(); err == nil {
			t.Error("accepted an LPM trie whose key holds no address byte")
		}
		p.Maps[0].KeySize = 5
		if err := p.Validate(); err != nil {
			t.Errorf("rejected a 5-byte LPM trie key: %v", err)
		}
	})
	t.Run("array map key size", func(t *testing.T) {
		p := validProgram()
		p.Maps[0].KeySize = 8
		if err := p.Validate(); err == nil {
			t.Error("accepted an array map with 8-byte keys")
		}
	})
}

func TestSlotOffsetsWithLDDW(t *testing.T) {
	p := &Program{
		Name: "lddw",
		Instructions: []Instruction{
			Mov64Imm(R0, 0),              // slot 0
			LoadImm64(R1, 1),             // slots 1-2
			Mov64Imm(R2, 2),              // slot 3
			JumpImmOp(JumpEq, R2, 2, -4), // slot 4, target slot 1
			Exit(),                       // slot 5
		},
	}
	offs := p.SlotOffsets()
	want := []int{0, 1, 3, 4, 5, 6}
	for i := range want {
		if offs[i] != want[i] {
			t.Errorf("slot offset[%d] = %d, want %d", i, offs[i], want[i])
		}
	}
	target, ok := p.BranchTarget(3)
	if !ok || target != 1 {
		t.Errorf("BranchTarget(3) = %d, %v; want 1, true", target, ok)
	}
	if _, ok := p.BranchTarget(0); ok {
		t.Error("BranchTarget accepted a non-branch")
	}
}

func TestDisassembleToy(t *testing.T) {
	p := validProgram()
	text := Disassemble(p.Instructions)
	for _, want := range []string{
		"0: r2 = *(u32 *)(r1 + 4)",
		"1: r1 = *(u32 *)(r1 + 0)",
		"3: *(u32 *)(r10 - 4) = r3",
		"6: exit",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("disassembly missing %q:\n%s", want, text)
		}
	}
}

func TestMapIndex(t *testing.T) {
	p := validProgram()
	idx, ok := p.MapIndex("stats")
	if !ok || idx != 0 {
		t.Errorf("MapIndex(stats) = %d, %v", idx, ok)
	}
	if _, ok := p.MapIndex("absent"); ok {
		t.Error("MapIndex found an absent map")
	}
}
