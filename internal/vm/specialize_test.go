package vm

import (
	"testing"

	"ehdl/internal/ebpf"
)

// operandZoo holds the values every specialised form is checked on:
// zero, one, sign and width boundaries, shift counts at and past the
// width, and patterns whose halves differ.
var operandZoo = []uint64{
	0, 1, 2, 31, 32, 33, 63, 64, 65, 0x7f, 0x80, 0xff, 0x100, 0x7fff, 0x8000, 0xffff,
	0x7fffffff, 0x80000000, 0xffffffff, 0x100000000, 0x7fffffffffffffff, 0x8000000000000000,
	0xffffffffffffffff, 0x0123456789abcdef, 0xfedcba9876543210, 0xdeadbeef00000000, 0x00000000deadbeef,
}

var immZoo = []int32{0, 1, 2, 7, 31, 32, 33, 63, 64, 255, 4096, 0x7fffffff, -1, -2, -64, -0x80000000}

// TestSpecializeALUMatchesReference checks every ALU closure — each
// operation, width and operand routing, specialised case and generic
// tail alike — against ExecALU, the reference interpreter's own path, on
// the whole operand zoo, including the aliased dst == src form.
func TestSpecializeALUMatchesReference(t *testing.T) {
	var all []ebpf.Instruction
	for op := 0; op <= 0xf0; op += 0x10 {
		for _, cls := range []ebpf.Class{ebpf.ClassALU, ebpf.ClassALU64} {
			base := uint8(cls) | uint8(op)
			for _, imm := range immZoo {
				all = append(all, ebpf.Instruction{Op: base | uint8(ebpf.SourceK), Dst: ebpf.R3, Imm: imm})
			}
			// Byte swaps keep their width in Imm whatever the source bit.
			for _, imm := range []int32{0, 16, 32, 64} {
				all = append(all,
					ebpf.Instruction{Op: base | uint8(ebpf.SourceX), Dst: ebpf.R3, Src: ebpf.R4, Imm: imm},
					ebpf.Instruction{Op: base | uint8(ebpf.SourceX), Dst: ebpf.R3, Src: ebpf.R3, Imm: imm})
			}
		}
	}
	checked, rejected := 0, 0
	for _, ins := range all {
		fn, err := SpecializeALU(ins)
		if _, refErr := EvalALU(ins, 0, 1); (err != nil) != (refErr != nil) {
			t.Fatalf("%s: specialiser error %v, reference error %v", ins, err, refErr)
		}
		if err != nil {
			rejected++
			continue
		}
		for _, d := range operandZoo {
			for _, s := range operandZoo {
				var got, want State
				got.Regs[ebpf.R3], got.Regs[ebpf.R4] = d, s
				want = got
				fn(&got)
				if err := ExecALU(&want, ins); err != nil {
					t.Fatalf("%s: reference: %v", ins, err)
				}
				if got.Regs != want.Regs {
					t.Fatalf("%s with dst=%#x src=%#x: closure left %#x, reference %#x",
						ins, d, s, got.Regs[ebpf.R3], want.Regs[ebpf.R3])
				}
				checked++
			}
		}
	}
	if checked == 0 || rejected == 0 {
		t.Fatalf("%d cases checked, %d encodings rejected: the sweep missed a side", checked, rejected)
	}
}

// TestSpecializeALUFusedChain checks that a fused tail runs after its
// head, in order, as one closure.
func TestSpecializeALUFusedChain(t *testing.T) {
	chain := []ebpf.Instruction{
		ebpf.Mov64Reg(ebpf.R3, ebpf.R4),
		ebpf.ALU64Imm(ebpf.ALULsh, ebpf.R3, 8),
		ebpf.ALU32Imm(ebpf.ALUOr, ebpf.R3, 0x5a),
		ebpf.Swap(ebpf.R3, ebpf.SourceX, 32),
	}
	fn, err := SpecializeALU(chain[0], chain[1:]...)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range operandZoo {
		var got, want State
		got.Regs[ebpf.R4] = s
		want = got
		fn(&got)
		for _, ins := range chain {
			if err := ExecALU(&want, ins); err != nil {
				t.Fatal(err)
			}
		}
		if got.Regs != want.Regs {
			t.Fatalf("src=%#x: chain left %#x, reference %#x", s, got.Regs[ebpf.R3], want.Regs[ebpf.R3])
		}
	}
	if _, err := SpecializeALU(chain[0], ebpf.Instruction{Op: uint8(ebpf.ClassALU64) | 0xe0}); err == nil {
		t.Fatal("an unsupported op in the fused tail compiled")
	}
}

// TestSpecializeBranchMatchesReference checks every branch predicate —
// each comparison, both widths, immediate and register operands —
// against EvalBranch on the whole operand zoo.
func TestSpecializeBranchMatchesReference(t *testing.T) {
	checked, rejected := 0, 0
	for op := 0; op <= 0xf0; op += 0x10 {
		for _, cls := range []ebpf.Class{ebpf.ClassJMP, ebpf.ClassJMP32} {
			var forms []ebpf.Instruction
			for _, imm := range immZoo {
				forms = append(forms, ebpf.Instruction{Op: uint8(cls) | uint8(ebpf.SourceK) | uint8(op), Dst: ebpf.R3, Imm: imm})
			}
			forms = append(forms,
				ebpf.Instruction{Op: uint8(cls) | uint8(ebpf.SourceX) | uint8(op), Dst: ebpf.R3, Src: ebpf.R4},
				ebpf.Instruction{Op: uint8(cls) | uint8(ebpf.SourceX) | uint8(op), Dst: ebpf.R3, Src: ebpf.R3})
			for _, ins := range forms {
				pred, err := SpecializeBranch(ins)
				if _, refErr := EvalBranch(&State{}, ins); (err != nil) != (refErr != nil) {
					t.Fatalf("%s: specialiser error %v, reference error %v", ins, err, refErr)
				}
				if err != nil {
					rejected++
					continue
				}
				for _, d := range operandZoo {
					for _, s := range operandZoo {
						var st State
						st.Regs[ebpf.R3], st.Regs[ebpf.R4] = d, s
						want, err := EvalBranch(&st, ins)
						if err != nil {
							t.Fatalf("%s: reference: %v", ins, err)
						}
						if got := pred(&st); got != want {
							t.Fatalf("%s with dst=%#x src=%#x: predicate %v, reference %v", ins, d, s, got, want)
						}
						checked++
					}
				}
			}
		}
	}
	if checked == 0 || rejected == 0 {
		t.Fatalf("%d cases checked, %d encodings rejected: the sweep missed a side", checked, rejected)
	}
}
