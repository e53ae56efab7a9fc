package hwsim

import (
	"strings"
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/core"
	"ehdl/internal/ddg"
	"ehdl/internal/ebpf"
	"ehdl/internal/vm"
)

// operandZoo holds the register values every code is checked on: zero,
// one, sign and width boundaries, shift counts at and past the width,
// and patterns whose halves differ.
var operandZoo = []uint64{
	0, 1, 2, 31, 32, 33, 63, 64, 65, 0x7f, 0x80, 0xff, 0x100, 0x7fff, 0x8000, 0xffff,
	0x7fffffff, 0x80000000, 0xffffffff, 0x100000000, 0x7fffffffffffffff, 0x8000000000000000,
	0xffffffffffffffff, 0x0123456789abcdef, 0xfedcba9876543210, 0xdeadbeef00000000, 0x00000000deadbeef,
}

var immZoo = []int32{0, 1, 2, 7, 31, 32, 33, 63, 64, 255, 4096, 0x7fffffff, -1, -2, -64, -0x80000000}

// runEntries runs hand-built table entries as one enabled block of stage
// 0 through execStage, on st and with val as map 0's looked-up value.
func runEntries(st *vm.State, val []byte, entries ...microOp) (*job, error) {
	s := &Sim{ops: entries, opOff: []int{0, len(entries)}, burstEnd: []int{0}, elasticStage: []bool{false}}
	for i := range s.ops {
		s.ops[i].skip = len(entries)
	}
	j := &job{st: st, enabled: []uint64{1}, lookups: []lookup{{val: val}}}
	return j, s.execStage(j, 0)
}

// refALU applies ins to r as the reference interpreter does.
func refALU(r *[ebpf.NumRegisters]uint64, ins ebpf.Instruction) {
	src := uint64(int64(ins.Imm))
	if ins.Source() == ebpf.SourceX {
		src = r[ins.Src]
	}
	r[ins.Dst], _ = vm.EvalALU(ins, r[ins.Dst], src)
}

func compileApp(t *testing.T, app *apps.App, opts core.Options) *core.Pipeline {
	t.Helper()
	prog, err := app.Program()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.Compile(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// aluForms is every ALU encoding: each operation of both classes with
// each immediate of the zoo, with a register source and with the
// destination as its own source, and the byte swaps of each width.
func aluForms() []ebpf.Instruction {
	var all []ebpf.Instruction
	for op := 0; op <= 0xf0; op += 0x10 {
		for _, cls := range []ebpf.Class{ebpf.ClassALU, ebpf.ClassALU64} {
			base := uint8(cls) | uint8(op)
			for _, imm := range immZoo {
				all = append(all, ebpf.Instruction{Op: base | uint8(ebpf.SourceK), Dst: ebpf.R3, Imm: imm})
			}
			// Byte swaps keep their width in Imm whatever the source bit.
			for _, imm := range []int32{0, 8, 16, 32, 64} {
				all = append(all,
					ebpf.Instruction{Op: base | uint8(ebpf.SourceX), Dst: ebpf.R3, Src: ebpf.R4, Imm: imm},
					ebpf.Instruction{Op: base | uint8(ebpf.SourceX), Dst: ebpf.R3, Src: ebpf.R3, Imm: imm})
			}
		}
	}
	return all
}

// TestALUCodesMatchReference runs every ALU encoding — each operation,
// width and operand source, coded or generic — through the execute loop
// on the whole operand zoo and holds it to vm.EvalALU, the reference
// interpreter's own evaluator.
func TestALUCodesMatchReference(t *testing.T) {
	coded, generic, rejected := map[opCode]bool{}, 0, 0
	for _, ins := range aluForms() {
		m := microOp{Op: &core.Op{Ins: ins}, fall: -1}
		err := aluCode(&m, ins)
		if _, refErr := vm.EvalALU(ins, 0, 1); (err != nil) != (refErr != nil) {
			t.Fatalf("%s: decoder error %v, reference error %v", ins, err, refErr)
		}
		if err != nil {
			rejected++
			continue
		}
		if m.code == opALU {
			generic++
		} else {
			coded[m.code] = true
		}
		for _, d := range operandZoo {
			for _, s := range operandZoo {
				var got, want vm.State
				got.Regs[ebpf.R3], got.Regs[ebpf.R4] = d, s
				want = got
				refALU(&want.Regs, ins)
				if _, err := runEntries(&got, nil, m); err != nil {
					t.Fatal(err)
				}
				if got.Regs != want.Regs {
					t.Fatalf("%s (code %d) with dst=%#x src=%#x: left %#x, reference %#x",
						ins, m.code, d, s, got.Regs[ebpf.R3], want.Regs[ebpf.R3])
				}
			}
		}
	}
	// Every ALU code but none is reached; some forms stay generic (the
	// 32-bit ones, div, mod), some encodings are not ALU ops at all.
	if len(coded) != int(opBE64-opMovK+1) || generic == 0 || rejected == 0 {
		t.Fatalf("%d ALU codes reached of %d, %d generic forms, %d rejected: the sweep missed a side",
			len(coded), opBE64-opMovK+1, generic, rejected)
	}
}

// TestFusedChainRunsInOrder checks that a fused chain becomes one entry
// per instruction, run in order, only the last enabling the fall-through.
func TestFusedChainRunsInOrder(t *testing.T) {
	chain := []ebpf.Instruction{
		ebpf.Mov64Reg(ebpf.R3, ebpf.R4),
		ebpf.ALU64Imm(ebpf.ALULsh, ebpf.R3, 8),
		ebpf.ALU32Imm(ebpf.ALUOr, ebpf.R3, 0x5a),
		ebpf.Swap(ebpf.R3, ebpf.SourceX, 32),
	}
	s := &Sim{}
	if err := s.compileOp(microOp{Op: &core.Op{Kind: core.OpALU, Ins: chain[0], Fused: chain[1:]}, fall: 1}); err != nil {
		t.Fatal(err)
	}
	if len(s.ops) != len(chain) {
		t.Fatalf("%d entries for a chain of %d", len(s.ops), len(chain))
	}
	for i, m := range s.ops {
		if want := map[bool]int{true: 1, false: -1}[i == len(chain)-1]; m.fall != want {
			t.Fatalf("entry %d enables %d, want %d", i, m.fall, want)
		}
	}
	for _, v := range operandZoo {
		var got, want vm.State
		got.Regs[ebpf.R4] = v
		want = got
		for _, ins := range chain {
			refALU(&want.Regs, ins)
		}
		j, err := runEntries(&got, nil, s.ops...)
		if err != nil {
			t.Fatal(err)
		}
		if got.Regs != want.Regs || !hasBit(j.enabled, 1) {
			t.Fatalf("src=%#x: chain left %#x, reference %#x", v, got.Regs[ebpf.R3], want.Regs[ebpf.R3])
		}
	}
	bad := microOp{Op: &core.Op{Kind: core.OpALU, Ins: chain[0], Fused: []ebpf.Instruction{{Op: uint8(ebpf.ClassALU64) | 0xe0}}}}
	if err := s.compileOp(bad); err == nil {
		t.Fatal("an unsupported op in the fused tail compiled")
	}
}

// TestJmpCodesMatchReference runs every conditional jump — each
// comparison, both widths, immediate and register operands — through the
// execute loop on the whole operand zoo and holds the successor it
// enables to ebpf.JumpOp.Compare, the interpreter's comparison.
func TestJmpCodesMatchReference(t *testing.T) {
	coded, generic, rejected := map[opCode]bool{}, 0, 0
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
				m := microOp{Op: &core.Op{Ins: ins}, fall: -1, taken: 1, other: 2}
				err := jmpCode(&m, ins)
				if _, refErr := ins.JumpOp().Compare(0, 0, false); (err != nil) != (refErr != nil) {
					t.Fatalf("%s: decoder error %v, reference error %v", ins, err, refErr)
				}
				if err != nil {
					rejected++
					continue
				}
				if m.code == opJmp {
					generic++
				} else {
					coded[m.code] = true
				}
				for _, d := range operandZoo {
					for _, s := range operandZoo {
						var st vm.State
						st.Regs[ebpf.R3], st.Regs[ebpf.R4] = d, s
						lhs, rhs, is32 := d, uint64(int64(ins.Imm)), cls == ebpf.ClassJMP32
						if ins.Source() == ebpf.SourceX {
							rhs = st.Regs[ins.Src]
						}
						if is32 {
							lhs, rhs = uint64(uint32(lhs)), uint64(uint32(rhs))
						}
						want, _ := ins.JumpOp().Compare(lhs, rhs, is32)
						j, err := runEntries(&st, nil, m)
						if err != nil {
							t.Fatal(err)
						}
						if got := hasBit(j.enabled, 1); got != want || got == hasBit(j.enabled, 2) {
							t.Fatalf("%s (code %d) with dst=%#x src=%#x: enabled %b, reference taken %v", ins, m.code, d, s, j.enabled[0], want)
						}
					}
				}
			}
		}
	}
	if len(coded) != int(opJSetX-opJA+1) || generic == 0 || rejected == 0 {
		t.Fatalf("%d jump codes reached of %d, %d generic forms, %d rejected: the sweep missed a side",
			len(coded), opJSetX-opJA+1, generic, rejected)
	}
}

// memZoo is one region's side of TestMemCodesMatchMemSpace: the static
// offsets tried — inside, at both edges and past them — and the virtual
// address the generic path wires for offset 0.
type memZoo struct {
	area ddg.MemArea
	offs []int64
	base func(st *vm.State, valueAddr uint64) uint64
}

// TestMemCodesMatchMemSpace runs every memory code — each region, width
// and offset, loads, both store forms and every atomic — through the
// execute loop and holds it to MemSpace.LoadAt/StoreAt at the address
// the generic path resolves, on registers, stack, packet bytes and map
// value alike. A form accessCode leaves to the generic path keeps that
// path's errors, and the sweep must see both kinds.
func TestMemCodesMatchMemSpace(t *testing.T) {
	const valueSize = 16
	prog := &ebpf.Program{Maps: []ebpf.MapSpec{{Name: "m", Kind: ebpf.MapArray, KeySize: 4, ValueSize: valueSize, MaxEntries: 1}}}
	env, err := vm.NewEnv(prog)
	if err != nil {
		t.Fatal(err)
	}
	space, err := vm.NewMemSpace(prog, env.Maps)
	if err != nil {
		t.Fatal(err)
	}
	sim := &Sim{pl: &core.Pipeline{Transformed: prog}}
	zoos := []memZoo{
		{ddg.AreaStack, []int64{-512, -511, -256, -16, -8, -7, -4, -2, -1, 0, 8, -513, -520},
			func(*vm.State, uint64) uint64 { return vm.StackTopAddr }},
		{ddg.AreaPacket, []int64{0, 1, 2, 12, 26, 56, 57, 60, 62, 63, 64, 65, 68, 69, 70, 71, 72, 100, -1, 1 << 21}, // 72 bytes of data
			func(st *vm.State, _ uint64) uint64 { return vm.PacketBase + uint64(st.Pkt.HeadIndex()) }},
		{ddg.AreaCtx, []int64{0, 4, 8, 12, 16, 20, 2, 24, -4},
			func(*vm.State, uint64) uint64 { return vm.CtxBase }},
		{ddg.AreaMap, []int64{0, 1, 4, 8, 9, 12, 13, 14, 15, 16, -1, 64},
			func(_ *vm.State, valueAddr uint64) uint64 { return valueAddr }},
	}
	atomics := []ebpf.AtomicOp{ebpf.AtomicAdd, ebpf.AtomicOr, ebpf.AtomicAnd, ebpf.AtomicXor,
		ebpf.AtomicAdd | ebpf.AtomicFetch, ebpf.AtomicOr | ebpf.AtomicFetch, ebpf.AtomicAnd | ebpf.AtomicFetch,
		ebpf.AtomicXor | ebpf.AtomicFetch, ebpf.AtomicXchg, ebpf.AtomicCmpXchg, 0x33}
	// newState arms one side of a comparison: a 64-byte frame whose head
	// moved, a patterned stack and value, operands in R0, R3 and R4.
	newState := func(operand uint64) (*vm.State, []byte, uint64) {
		frame := make([]byte, 64)
		for i := range frame {
			frame[i] = byte(0xa0 + i)
		}
		st := &vm.State{}
		st.Reset(frame, 0, ebpf.StackSize)
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
	coded, declined := 0, 0
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
					m := microOp{Op: &core.Op{Ins: ins, Access: &ddg.Access{Area: zoo.area, Off: off}, BaseElided: true}, fall: -1}
					if m.code = sim.accessCode(&m); m.code == opRun {
						declined++
						continue
					}
					coded++
					for _, operand := range operandZoo {
						got, gotVal, _ := newState(operand)
						// The reference resolves its own copy of the value
						// through the address space, last registered.
						want, wantVal, addr := newState(operand)
						j, err := runEntries(got, gotVal, m)
						if err != nil {
							t.Fatalf("%s at %v%+d: %v", ins, zoo.area, off, err)
						}
						var refErr error
						if target := zoo.base(want, addr) + uint64(off); ins.Class() == ebpf.ClassLDX {
							var v uint64
							if v, refErr = space.LoadAt(want, target, size.Bytes()); refErr == nil {
								want.Regs[ins.Dst] = v
							}
						} else {
							refErr = space.StoreAt(want, ins, target)
						}
						// The only error a code meets is the bounds check's.
						if fault := j.done && j.action == oobAction; fault != (refErr != nil) || fault && zoo.area != ddg.AreaPacket {
							t.Fatalf("%s at %v%+d: bounds fault %v, reference error %v", ins, zoo.area, off, fault, refErr)
						}
						if got.Regs != want.Regs || got.Stack != want.Stack || string(gotVal) != string(wantVal) ||
							got.Pkt.HeadIndex() != want.Pkt.HeadIndex() || string(got.Pkt.Bytes()) != string(want.Pkt.Bytes()) {
							t.Fatalf("%s at %v%+d with operand %#x: code and reference left different state", ins, zoo.area, off, operand)
						}
					}
					if zoo.area == ddg.AreaMap {
						st, _, _ := newState(0)
						if _, err := runEntries(st, nil, m); !strings.Contains(err.Error(), errNoLookup.Error()) {
							t.Fatalf("%s through a missed lookup: %v, want %v", ins, err, errNoLookup)
						}
					}
				}
			}
		}
	}
	if coded < 200 || declined < 200 {
		t.Fatalf("%d forms coded, %d declined: the sweep missed a side", coded, declined)
	}
}

// wantRun reports whether op must take opRun on a plain table: a map
// call or helper, an access with a register base or with no code of its
// own, and a map access behind a write delay buffer.
func wantRun(s *Sim, op *core.Op) bool {
	switch op.Kind {
	case core.OpMapCall, core.OpHelper:
		return true
	case core.OpLoad, core.OpStore, core.OpAtomic:
		acc := op.Access
		if !op.BaseElided || acc == nil || acc.Area == ddg.AreaMap && s.maps[op.MapID].warDepth != 0 {
			return true
		}
		if op.Kind == core.OpAtomic {
			a := op.Ins.AtomicOp()
			return acc.Area != ddg.AreaMap || a&ebpf.AtomicFetch != 0 || a == ebpf.AtomicXchg || a == ebpf.AtomicCmpXchg
		}
	}
	return false
}

// TestHotOpsCoded pins what runs inline: on every app × validated option
// set, on both the pipelined and the one-burst table, every ALU op,
// LDDW, branch, exit and statically addressed access has a code of its
// own, opRun is left to the ops wantRun names, and an opCommit follows
// exactly the pipelined table's map writes. It logs ops, coded entries
// and block runs per design, so a change that pushes a hot op back onto
// a call shows.
func TestHotOpsCoded(t *testing.T) {
	for _, app := range append(apps.All(), apps.Toy(), apps.LeakyBucket(), apps.LoadBalancer()) {
		for name, opts := range validateOptions {
			pl := compileApp(t, app, opts)
			for _, burst := range []bool{false, true} {
				env, err := vm.NewEnv(pl.Transformed)
				if err != nil {
					t.Fatal(err)
				}
				s, err := newSim(pl, Config{}, env, burst)
				if err != nil {
					t.Fatal(err)
				}
				ops, coded, runs := 0, 0, 0
				for i := range s.ops {
					m := &s.ops[i]
					if i == 0 || m.block != s.ops[i-1].block {
						runs++
					}
					if m.code != opRun {
						coded++
					}
					if i > 0 && m.Op == s.ops[i-1].Op {
						if fused, commit := m.Kind == core.OpALU && m.code != opCommit, m.code == opCommit && !burst; !fused && !commit {
							t.Errorf("%s/%s burst=%v: stage %d (%s): entry %d follows its op as code %d", app.Name, name, burst, m.stage, m.Ins, i, m.code)
						}
						continue
					}
					ops++
					isMapWrite := m.Kind != core.OpLoad && m.Access != nil && m.Access.Area == ddg.AreaMap
					commits := !burst && m.code != opRun && isMapWrite
					if hasCommit := i+1 < len(s.ops) && s.ops[i+1].code == opCommit; hasCommit != commits {
						t.Errorf("%s/%s burst=%v: stage %d (%s): commit entry %v, want %v", app.Name, name, burst, m.stage, m.Ins, hasCommit, commits)
					}
					if (m.code == opRun) != wantRun(s, m.Op) {
						t.Errorf("%s/%s burst=%v: stage %d (%s): code %d", app.Name, name, burst, m.stage, m.Ins, m.code)
					}
				}
				t.Logf("%-12s %-14s burst=%-5v %3d ops, %3d entries, %3d coded, %3d block runs", app.Name, name, burst, ops, len(s.ops), coded, runs)
			}
		}
	}
}

// TestTablesRefuseStageOfTwoBlocks hands buildTables a pipeline whose
// stage holds ops of two blocks: the execute loop runs a stage as one
// block's run, so the table must not be built.
func TestTablesRefuseStageOfTwoBlocks(t *testing.T) {
	pl := compileApp(t, apps.Toy(), core.Options{})
	for a := range pl.Stages {
		for b := a + 1; b < len(pl.Stages); b++ {
			sa, sb := &pl.Stages[a], &pl.Stages[b]
			if len(sa.Ops) == 0 || len(sb.Ops) == 0 || sa.Ops[0].BlockID == sb.Ops[0].BlockID {
				continue
			}
			sa.Ops = append(sa.Ops, sb.Ops[0])
			_, err := New(pl, Config{})
			if err == nil || !strings.Contains(err.Error(), "holds ops of blocks") {
				t.Fatalf("stage %d with a block-%d op: %v", a, sb.Ops[0].BlockID, err)
			}
			return
		}
	}
	t.Fatal("toy has no two stages of different blocks")
}
