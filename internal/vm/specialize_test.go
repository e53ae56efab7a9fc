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
// tail alike — against execALU, the reference interpreter's own path, on
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
		if _, refErr := evalALU(ins, 0, 1); (err != nil) != (refErr != nil) {
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
				if err := execALU(&want, ins); err != nil {
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
			if err := execALU(&want, ins); err != nil {
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
// against evalBranch on the whole operand zoo.
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
				if _, refErr := evalBranch(&State{}, ins); (err != nil) != (refErr != nil) {
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
						want, err := evalBranch(&st, ins)
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

// memZoo is one region's side of TestSpecializeMemMatchesMemSpace: the
// static offsets tried — inside, at both edges and past them — and the
// virtual address the engines' generic path wires for offset 0.
type memZoo struct {
	area Region
	offs []int64
	base func(st *State, valueAddr uint64) uint64
}

// TestSpecializeMemMatchesMemSpace checks every memory closure — each
// region, width and offset, loads, both store forms and every atomic —
// against MemSpace.LoadAt/StoreAt at the address the generic path
// resolves, on registers, stack, packet bytes and map value alike; a
// form SpecializeMem declines is one the generic path keeps, and the
// sweep must see both kinds.
func TestSpecializeMemMatchesMemSpace(t *testing.T) {
	const valueSize = 16
	prog := &ebpf.Program{Maps: []ebpf.MapSpec{{Name: "m", Kind: ebpf.MapArray, KeySize: 4, ValueSize: valueSize, MaxEntries: 1}}}
	env, err := NewEnv(prog)
	if err != nil {
		t.Fatal(err)
	}
	space, err := NewMemSpace(prog, env.Maps)
	if err != nil {
		t.Fatal(err)
	}
	zoos := []memZoo{
		{RegionStack, []int64{-512, -511, -256, -16, -8, -7, -4, -2, -1, 0, 8, -513, -520},
			func(*State, uint64) uint64 { return StackTopAddr }},
		{RegionPacket, []int64{0, 1, 2, 12, 26, 56, 57, 60, 62, 63, 64, 65, 68, 69, 70, 71, 72, 100, -1, 1 << 21}, // 72 bytes of data
			func(st *State, _ uint64) uint64 { return PacketBase + uint64(st.Pkt.HeadIndex()) }},
		{RegionCtx, []int64{0, 4, 8, 12, 16, 20, 2, 24, -4},
			func(*State, uint64) uint64 { return CtxBase }},
		{RegionMapValue, []int64{0, 1, 4, 8, 9, 12, 13, 14, 15, 16, -1, 64},
			func(_ *State, valueAddr uint64) uint64 { return valueAddr }},
	}
	atomics := []ebpf.AtomicOp{ebpf.AtomicAdd, ebpf.AtomicOr, ebpf.AtomicAnd, ebpf.AtomicXor,
		ebpf.AtomicAdd | ebpf.AtomicFetch, ebpf.AtomicOr | ebpf.AtomicFetch, ebpf.AtomicAnd | ebpf.AtomicFetch,
		ebpf.AtomicXor | ebpf.AtomicFetch, ebpf.AtomicXchg, ebpf.AtomicCmpXchg, 0x33}
	// newState arms one side of a comparison: a 64-byte frame whose head
	// moved, a patterned stack and value, operands in R0, R3 and R4.
	newState := func(operand uint64) (*State, []byte, uint64) {
		frame := make([]byte, 64)
		for i := range frame {
			frame[i] = byte(0xa0 + i)
		}
		st := newState(NewPacket(frame))
		if err := st.Pkt.AdjustHead(-8); err != nil {
			t.Fatal(err)
		}
		for i := range st.Stack {
			st.Stack[i] = byte(i*7 + 1)
		}
		st.Regs[ebpf.R0], st.Regs[ebpf.R3], st.Regs[ebpf.R4] = 0x0807060504030201, operand, ^operand
		val := make([]byte, valueSize)
		for i := range val {
			val[i] = byte(i + 1)
		}
		return st, val, space.ValueAddress(0, 0, val)
	}
	specialised, declined := 0, 0
	for _, zoo := range zoos {
		for _, size := range []ebpf.Size{ebpf.SizeB, ebpf.SizeH, ebpf.SizeW, ebpf.SizeDW} {
			forms := []ebpf.Instruction{
				ebpf.LoadMem(size, ebpf.R3, ebpf.R1, 0),
				ebpf.StoreMem(size, ebpf.R1, 0, ebpf.R4),
				ebpf.StoreImm(size, ebpf.R1, 0, -0x1234567),
			}
			for _, op := range atomics {
				forms = append(forms, ebpf.Atomic(size, ebpf.R1, 0, ebpf.R4, op))
			}
			for _, ins := range forms {
				for _, off := range zoo.offs {
					fn := SpecializeMem(ins, zoo.area, off, valueSize)
					if fn == nil {
						declined++
						continue
					}
					specialised++
					for _, operand := range operandZoo {
						got, gotVal, _ := newState(operand)
						// The reference resolves its own copy of the value
						// through the address space, last registered.
						want, wantVal, addr := newState(operand)
						err := fn(got, gotVal)
						var refErr error
						if target := zoo.base(want, addr) + uint64(off); ins.Class() == ebpf.ClassLDX {
							var v uint64
							if v, refErr = space.LoadAt(want, target, size.Bytes()); refErr == nil {
								want.Regs[ins.Dst] = v
							}
						} else {
							refErr = space.StoreAt(want, ins, target)
						}
						if (err != nil) != (refErr != nil) {
							t.Fatalf("%s at %v%+d: closure error %v, reference error %v", ins, zoo.area, off, err, refErr)
						}
						if err != nil && err != ErrPacketBounds {
							t.Fatalf("%s at %v%+d: closure error %v, want ErrPacketBounds", ins, zoo.area, off, err)
						}
						if got.Regs != want.Regs || got.Stack != want.Stack || string(gotVal) != string(wantVal) ||
							got.Pkt.HeadIndex() != want.Pkt.HeadIndex() || string(got.Pkt.Bytes()) != string(want.Pkt.Bytes()) {
							t.Fatalf("%s at %v%+d with operand %#x: closure and reference left different state", ins, zoo.area, off, operand)
						}
					}
					if zoo.area == RegionMapValue {
						st, _, _ := newState(0)
						if err := fn(st, nil); err != errNoLookup {
							t.Fatalf("%s through a missed lookup: %v, want ErrNoLookup", ins, err)
						}
					}
				}
			}
		}
	}
	if specialised < 200 || declined < 200 {
		t.Fatalf("%d forms specialised, %d declined: the sweep missed a side", specialised, declined)
	}
}
