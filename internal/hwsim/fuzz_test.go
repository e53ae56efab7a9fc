package hwsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ehdl/internal/asm"
	"ehdl/internal/cfg"
	"ehdl/internal/core"
	"ehdl/internal/ddg"
	"ehdl/internal/ebpf"
	"ehdl/internal/pktgen"
	"ehdl/internal/vm"
)

// progGen builds random but analysable XDP programs: packet bounds
// checks in every orientation, a packet length (data_end - data) in the
// arithmetic, every ALU operation and every conditional jump of both
// widths, packet parses and writes at static offsets, stack traffic,
// branchy control flow, map lookups with stack-resident keys, atomic
// counters, optional miss-path updates, and operand aliasing — a
// register stored or atomically added through itself, both operands of
// an ALU op.
// Every generated program must compile and behave identically on the
// reference VM and the pipeline.
type progGen struct {
	r *rand.Rand
	b *asm.Builder

	label  int
	checks int // bounds checks emitted
}

func (g *progGen) newLabel() string {
	g.label++
	return fmt.Sprintf("L%d", g.label)
}

// scratch registers the generator plays with (callee-saved, excluding
// r7 which holds the packet pointer).
var scratch = []ebpf.Register{ebpf.R6, ebpf.R8, ebpf.R9}

func (g *progGen) reg() ebpf.Register { return scratch[g.r.Intn(len(scratch))] }

// generateProgram returns seed's program and how many bounds checks it
// holds, each of which the compiler must elide.
func generateProgram(seed int64) (*ebpf.Program, int, error) {
	r := rand.New(rand.NewSource(seed))
	g := &progGen{r: r, b: asm.NewBuilder(fmt.Sprintf("fuzz%d", seed))}
	b := g.b

	withMap := r.Intn(3) > 0
	withUpdate := withMap && r.Intn(2) == 0
	withCounters := r.Intn(2) == 0
	if withMap {
		b.DeclareMap(ebpf.MapSpec{Name: "m", Kind: ebpf.MapHash, KeySize: 4, ValueSize: 8, MaxEntries: 1024})
	}
	if withCounters {
		b.DeclareMap(ebpf.MapSpec{Name: "ctr", Kind: ebpf.MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 4})
	}

	// Prologue: packet pointer in r7 (bounds-checked to 40 bytes),
	// data_end in r2.
	b.Emit(
		ebpf.Mov64Reg(ebpf.R6, ebpf.R1),
		ebpf.LoadMem(ebpf.SizeW, ebpf.R2, ebpf.R1, 4),
		ebpf.LoadMem(ebpf.SizeW, ebpf.R7, ebpf.R1, 0),
		ebpf.Mov64Reg(ebpf.R3, ebpf.R7),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R3, 40),
	)
	g.boundsCheck(ebpf.R3, ebpf.R2)
	if r.Intn(2) == 0 {
		// A deeper check, at most as deep as the shortest frame of the
		// differential traffic, sometimes built as scalar + data.
		depth := int32(40 + r.Intn(8))
		if r.Intn(2) == 0 {
			b.Emit(ebpf.Mov64Imm(ebpf.R4, depth), ebpf.ALU64Reg(ebpf.ALUAdd, ebpf.R4, ebpf.R7))
		} else {
			b.Emit(ebpf.Mov64Reg(ebpf.R4, ebpf.R7), ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R4, depth))
		}
		g.boundsCheck(ebpf.R4, ebpf.R2)
	}

	// Seed the scratch registers from the packet.
	for _, reg := range scratch {
		b.Emit(ebpf.LoadMem(randSize(r), reg, ebpf.R7, int16(r.Intn(32))))
	}

	verdictExit := false
	if r.Intn(2) == 0 {
		// The packet length is a scalar: mix it into a scratch register,
		// and sometimes compare it with a packet pointer. That is no
		// bounds check, whichever side the constant-verdict exit is on.
		b.Emit(
			ebpf.Mov64Reg(ebpf.R5, ebpf.R2),
			ebpf.ALU64Reg(ebpf.ALUSub, ebpf.R5, ebpf.R7),
			ebpf.ALU64Imm([]ebpf.ALUOp{ebpf.ALUAdd, ebpf.ALUAnd, ebpf.ALULsh}[r.Intn(3)], ebpf.R5, int32(1+r.Intn(7))),
			ebpf.ALU64Reg([]ebpf.ALUOp{ebpf.ALUAdd, ebpf.ALUXor, ebpf.ALUSub}[r.Intn(3)], g.reg(), ebpf.R5),
		)
		if r.Intn(2) == 0 {
			b.Emit(ebpf.Mov64Reg(ebpf.R4, ebpf.R7), ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R4, int32(r.Intn(40))))
			dst, src := ebpf.R4, ebpf.R5
			if r.Intn(2) == 0 {
				dst, src = src, dst
			}
			op := []ebpf.JumpOp{ebpf.JumpGT, ebpf.JumpGE, ebpf.JumpLT, ebpf.JumpLE}[r.Intn(4)]
			if r.Intn(2) == 0 {
				verdictExit = true
				b.JumpRegTo(op, dst, src, "verdict")
			} else {
				skip := g.newLabel()
				b.JumpRegTo(op, dst, src, skip)
				g.emitStraightLine(1 + r.Intn(3))
				b.Label(skip)
			}
		}
	}

	if withCounters {
		// A global atomic counter early in the program: with a map update
		// later, this also exercises the elastic-buffer placement.
		b.Emit(
			ebpf.StoreImm(ebpf.SizeW, ebpf.R10, -24, int32(r.Intn(4))),
			ebpf.LoadMapRef(ebpf.R1, "ctr"),
			ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
			ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R2, -24),
			ebpf.Call(ebpf.HelperMapLookupElem),
		)
		skip := g.newLabel()
		b.JumpTo(ebpf.JumpEq, ebpf.R0, 0, skip)
		b.Emit(
			ebpf.Mov64Imm(ebpf.R2, 1),
			ebpf.Atomic(ebpf.SizeDW, ebpf.R0, 0, ebpf.R2, ebpf.AtomicAdd),
		)
		b.Label(skip)
	}

	// A few blocks of random ALU/branch/stack work.
	blocks := 2 + r.Intn(4)
	for i := 0; i < blocks; i++ {
		g.emitStraightLine(3 + r.Intn(6))
		if r.Intn(2) == 0 {
			body := g.straightLine(1 + r.Intn(4))
			b.Emit(g.jumpOver(body)).Emit(body...)
		}
	}

	if withMap {
		// Key from a scratch register, truncated, on the stack.
		key := g.reg()
		b.Emit(
			ebpf.Mov64Reg(ebpf.R3, key),
			ebpf.ALU64Imm(ebpf.ALUAnd, ebpf.R3, int32(1+r.Intn(7))), // few distinct keys: hazards likely
			ebpf.StoreMem(ebpf.SizeW, ebpf.R10, -4, ebpf.R3),
			ebpf.LoadMapRef(ebpf.R1, "m"),
			ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
			ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R2, -4),
			ebpf.Call(ebpf.HelperMapLookupElem),
		)
		b.JumpTo(ebpf.JumpEq, ebpf.R0, 0, "miss")
		// Hit: atomic increment (safe under flushes) and a read.
		b.Emit(
			ebpf.Mov64Imm(ebpf.R2, 1),
			ebpf.Atomic(ebpf.SizeDW, ebpf.R0, 0, ebpf.R2, ebpf.AtomicAdd),
			ebpf.LoadMem(ebpf.SizeDW, ebpf.R8, ebpf.R0, 0),
		)
		b.GotoLabel("out")
		b.Label("miss")
		if withUpdate {
			b.Emit(
				ebpf.StoreImm(ebpf.SizeDW, ebpf.R10, -16, 1),
				ebpf.LoadMapRef(ebpf.R1, "m"),
				ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
				ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R2, -4),
				ebpf.Mov64Reg(ebpf.R3, ebpf.R10),
				ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R3, -16),
				ebpf.Mov64Imm(ebpf.R4, 0),
				ebpf.Call(ebpf.HelperMapUpdateElem),
			)
		}
		b.Label("out")
	}

	// Verdict from a scratch register: PASS or TX.
	v := g.reg()
	b.Emit(
		ebpf.Mov64Reg(ebpf.R0, v),
		ebpf.ALU64Imm(ebpf.ALUAnd, ebpf.R0, 1),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R0, 2), // XDP_PASS or XDP_TX
		ebpf.Exit(),
	)
	b.Label("drop")
	b.Emit(ebpf.Mov64Imm(ebpf.R0, 1), ebpf.Exit())
	if verdictExit {
		b.Label("verdict")
		b.Emit(ebpf.Mov64Imm(ebpf.R0, 3), ebpf.Exit())
	}
	prog, err := b.Program()
	return prog, g.checks, err
}

// boundsCheck emits "drop unless ptr is within the frame" as a
// comparison of ptr against end in one of eight shapes: greater, at
// least, less or at most, either register on the left, the drop exit
// taken or fallen into. Half the shapes drop at ptr == end too.
func (g *progGen) boundsCheck(ptr, end ebpf.Register) {
	r, b := g.r, g.b
	g.checks++
	atEnd := r.Intn(2) // 1: also drop when ptr == end
	switch r.Intn(4) {
	case 0: // ptr > end, ptr >= end
		b.JumpRegTo([]ebpf.JumpOp{ebpf.JumpGT, ebpf.JumpGE}[atEnd], ptr, end, "drop")
	case 1: // end < ptr, end <= ptr
		b.JumpRegTo([]ebpf.JumpOp{ebpf.JumpLT, ebpf.JumpLE}[atEnd], end, ptr, "drop")
	case 2: // ptr <= end, ptr < end continue; the drop falls through
		in := g.newLabel()
		b.JumpRegTo([]ebpf.JumpOp{ebpf.JumpLE, ebpf.JumpLT}[atEnd], ptr, end, in)
		b.Emit(ebpf.Mov64Imm(ebpf.R0, 1), ebpf.Exit())
		b.Label(in)
	case 3: // end >= ptr, end > ptr continue
		in := g.newLabel()
		b.JumpRegTo([]ebpf.JumpOp{ebpf.JumpGE, ebpf.JumpGT}[atEnd], end, ptr, in)
		b.Emit(ebpf.Mov64Imm(ebpf.R0, 1), ebpf.Exit())
		b.Label(in)
	}
}

func (g *progGen) emitStraightLine(n int) { g.b.Emit(g.straightLine(n)...) }

// straightLine returns n random steps of ALU, stack and packet work.
func (g *progGen) straightLine(n int) []ebpf.Instruction {
	r := g.r
	var out []ebpf.Instruction
	ops := []ebpf.ALUOp{ebpf.ALUAdd, ebpf.ALUSub, ebpf.ALUAnd, ebpf.ALUOr, ebpf.ALUXor, ebpf.ALUMul}
	for i := 0; i < n; i++ {
		switch r.Intn(16) {
		case 0:
			out = append(out, ebpf.ALU64Imm(ops[r.Intn(len(ops))], g.reg(), int32(r.Intn(1<<12))))
		case 1:
			out = append(out, ebpf.ALU64Reg(ops[r.Intn(len(ops))], g.reg(), g.reg()))
		case 2:
			out = append(out, ebpf.ALU64Imm(ebpf.ALULsh, g.reg(), int32(1+r.Intn(8))))
		case 3:
			// Spill and reload through a distinct stack slot.
			slot := int16(-8 * (2 + r.Intn(6)))
			out = append(out,
				ebpf.StoreMem(ebpf.SizeDW, ebpf.R10, slot, g.reg()),
				ebpf.LoadMem(ebpf.SizeDW, g.reg(), ebpf.R10, slot),
			)
		case 4:
			out = append(out, ebpf.LoadMem(randSize(r), g.reg(), ebpf.R7, int16(r.Intn(32))))
		case 5:
			// Packet write at a safe offset, of a register or an immediate.
			out = append(out, ebpf.StoreMem(ebpf.SizeB, ebpf.R7, int16(r.Intn(32)), g.reg()))
			if r.Intn(2) == 0 {
				out[len(out)-1] = ebpf.StoreImm(randSize(r), ebpf.R7, int16(r.Intn(32)), int32(r.Uint32()))
			}
		case 6:
			// 32-bit arithmetic zero-extends like the datapath must.
			out = append(out, ebpf.ALU32Imm(ops[r.Intn(len(ops))], g.reg(), int32(r.Intn(1<<12))))
		case 7:
			// Byte-order conversion (wiring in hardware).
			width := []int32{16, 32, 64}[r.Intn(3)]
			src := ebpf.SourceK
			if r.Intn(2) == 0 {
				src = ebpf.SourceX
			}
			out = append(out, ebpf.Swap(g.reg(), src, width))
		case 8:
			out = append(out, ebpf.ALU64Reg(ebpf.ALURsh, g.reg(), g.reg()))
		case 9:
			// A store whose base is also its value: into a stack slot
			// no other case uses, read back, or into the packet.
			if r.Intn(2) == 0 {
				out = append(out, ebpf.StoreMem(randSize(r), ebpf.R7, int16(r.Intn(32)), ebpf.R7))
				break
			}
			slot := int16(-8 * (8 + r.Intn(2)))
			out = append(out,
				ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
				ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R2, int32(slot)),
				ebpf.StoreMem(ebpf.SizeDW, ebpf.R2, 0, ebpf.R2),
				ebpf.LoadMem(ebpf.SizeDW, g.reg(), ebpf.R10, slot),
			)
		case 10:
			// An atomic whose base is also its operand.
			slot := int16(-8 * (8 + r.Intn(2)))
			op := []ebpf.AtomicOp{ebpf.AtomicAdd, ebpf.AtomicOr, ebpf.AtomicXor,
				ebpf.AtomicAdd | ebpf.AtomicFetch, ebpf.AtomicXchg}[r.Intn(5)]
			out = append(out,
				ebpf.StoreMem(ebpf.SizeDW, ebpf.R10, slot, g.reg()),
				ebpf.Mov64Reg(ebpf.R3, ebpf.R10),
				ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R3, int32(slot)),
				ebpf.Atomic(ebpf.SizeDW, ebpf.R3, 0, ebpf.R3, op),
				ebpf.LoadMem(ebpf.SizeDW, g.reg(), ebpf.R10, slot),
			)
		case 11:
			// One register as both operands.
			reg := g.reg()
			if r.Intn(2) == 0 {
				out = append(out, ebpf.ALU64Reg(ops[r.Intn(len(ops))], reg, reg))
			} else {
				out = append(out, ebpf.ALU32Reg(ops[r.Intn(len(ops))], reg, reg))
			}
		case 12:
			// Shifts of either width, by an immediate or a register
			// count, at and past the width too.
			op := []ebpf.ALUOp{ebpf.ALULsh, ebpf.ALURsh, ebpf.ALUArsh}[r.Intn(3)]
			ins := ebpf.ALU64Imm(op, g.reg(), int32(r.Intn(70)))
			if r.Intn(2) == 0 {
				ins = ebpf.ALU64Reg(op, g.reg(), g.reg())
			}
			out = append(out, g.width(ins))
		case 13:
			// Division and modulo of either width, by an immediate, a
			// register or a register holding zero.
			op := []ebpf.ALUOp{ebpf.ALUDiv, ebpf.ALUMod}[r.Intn(2)]
			switch r.Intn(3) {
			case 0:
				out = append(out, g.width(ebpf.ALU64Imm(op, g.reg(), int32(1+r.Intn(1000)))))
			case 1:
				out = append(out, g.width(ebpf.ALU64Reg(op, g.reg(), g.reg())))
			default:
				out = append(out, ebpf.Mov64Imm(ebpf.R5, 0), g.width(ebpf.ALU64Reg(op, g.reg(), ebpf.R5)))
			}
		case 14:
			// Negation, and moves that zero-extend.
			switch r.Intn(3) {
			case 0:
				out = append(out, g.width(ebpf.Neg64(g.reg())))
			case 1:
				out = append(out, ebpf.Mov32Imm(g.reg(), int32(r.Uint32())))
			default:
				out = append(out, ebpf.Mov32Reg(g.reg(), g.reg()))
			}
		case 15:
			// Every other operation, immediate or register, either width.
			op := []ebpf.ALUOp{ebpf.ALUAdd, ebpf.ALUSub, ebpf.ALUMul, ebpf.ALUOr, ebpf.ALUAnd, ebpf.ALUXor, ebpf.ALUMov}[r.Intn(7)]
			ins := ebpf.ALU64Imm(op, g.reg(), int32(r.Uint32()))
			if r.Intn(2) == 0 {
				ins = ebpf.ALU64Reg(op, g.reg(), g.reg())
			}
			out = append(out, g.width(ins))
		}
	}
	return out
}

// width makes a 64-bit ALU instruction 32-bit half the time.
func (g *progGen) width(ins ebpf.Instruction) ebpf.Instruction {
	if g.r.Intn(2) == 0 {
		ins.Op = ins.Op&^7 | uint8(ebpf.ClassALU)
	}
	return ins
}

// jumpOver returns a conditional jump past body: any comparison, of
// either width, against an immediate or a register.
func (g *progGen) jumpOver(body []ebpf.Instruction) ebpf.Instruction {
	r, off := g.r, 0
	for _, ins := range body {
		off += ins.Slots()
	}
	op := []ebpf.JumpOp{ebpf.JumpEq, ebpf.JumpNE, ebpf.JumpGT, ebpf.JumpGE, ebpf.JumpLT, ebpf.JumpLE, ebpf.JumpSet,
		ebpf.JumpSGT, ebpf.JumpSGE, ebpf.JumpSLT, ebpf.JumpSLE}[r.Intn(11)]
	ins := ebpf.JumpImmOp(op, g.reg(), int32(r.Intn(1024)-512), int16(off))
	if r.Intn(3) == 0 {
		ins = ebpf.JumpRegOp(op, g.reg(), g.reg(), int16(off))
	}
	if r.Intn(2) == 0 {
		ins.Op = ins.Op&^7 | uint8(ebpf.ClassJMP32)
	}
	return ins
}

func randSize(r *rand.Rand) ebpf.Size {
	return []ebpf.Size{ebpf.SizeB, ebpf.SizeH, ebpf.SizeW, ebpf.SizeDW}[r.Intn(4)]
}

// fuzzDifferential verifies one generated program against the reference
// interpreter on the given traffic: verdicts, packet bytes and final
// map state must all match.
func fuzzDifferential(t *testing.T, seed int64, prog *ebpf.Program, opts core.Options, packets [][]byte) {
	t.Helper()
	pl, err := core.Compile(prog, opts)
	if err != nil {
		t.Fatalf("seed %d: compile: %v", seed, err)
	}
	if err := validate(pl); err != nil {
		t.Fatalf("seed %d: %v\n%s", seed, err, ebpf.Disassemble(prog.Instructions))
	}

	// Reference run.
	refEnv, err := vm.NewEnv(prog)
	if err != nil {
		t.Fatal(err)
	}
	refEnv.Now = func() uint64 { return 0 }
	machine, err := vm.New(prog, refEnv)
	if err != nil {
		t.Fatal(err)
	}

	type refOut struct {
		action ebpf.XDPAction
		data   []byte
	}
	refs := make([]refOut, len(packets))
	for i, data := range packets {
		p := vm.NewPacket(data)
		res, err := machine.Run(p)
		if err != nil {
			t.Fatalf("seed %d packet %d: reference: %v", seed, i, err)
		}
		refs[i] = refOut{res.Action, append([]byte(nil), p.Bytes()...)}
	}

	// Both execution tables — private stages run ahead, and every stage
	// visited under a tracer — must agree with each other on everything
	// visible from outside, then with the reference.
	t.Logf("seed %d", seed)
	gaps := make([]int, len(packets))
	for i := range gaps {
		gaps[i] = 1
	}
	run := compareTables(t, pl, nil, Config{}, packets, gaps)
	for _, res := range run.results {
		ref := refs[res.Seq]
		if res.Action != ref.action {
			t.Fatalf("seed %d packet %d (%dB): action %v vs reference %v\n%s",
				seed, res.Seq, len(packets[res.Seq]), res.Action, ref.action, ebpf.Disassemble(prog.Instructions))
		}
		if !bytes.Equal(res.Data, ref.data) {
			t.Fatalf("seed %d packet %d (%dB): packet bytes diverge\n%s",
				seed, res.Seq, len(packets[res.Seq]), ebpf.Disassemble(prog.Instructions))
		}
	}
	if want := dumpMaps(refEnv.Maps); run.maps != want {
		t.Fatalf("seed %d: final map state\n%s\nvs reference\n%s", seed, run.maps, want)
	}
}

// TestFuzzDifferential compiles random programs and verifies the
// pipeline against the reference interpreter on random traffic.
func TestFuzzDifferential(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		prog, _, err := generateProgram(seed)
		if err != nil {
			t.Fatalf("seed %d: generator produced an invalid program: %v", seed, err)
		}
		r := rand.New(rand.NewSource(seed * 77))
		packets := make([][]byte, 80)
		for i := range packets {
			pkt := make([]byte, 48+r.Intn(64))
			r.Read(pkt)
			packets[i] = pkt
		}
		fuzzDifferential(t, seed, prog, core.Options{}, packets)
	}
}

// malformedCorpus is the fault-model seed corpus: every malformation
// class applied to a well-formed 64-byte UDP frame, plus straight cuts
// at the boundary offsets of the generated programs' 40-byte bounds
// check, plus healthy frames so hazard machinery still engages.
func malformedCorpus(seed int64) [][]byte {
	base := pktgen.Build(pktgen.PacketSpec{
		Flow:     pktgen.Flow{SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: 4242, DstPort: 53, Proto: 17},
		TotalLen: 64,
	})
	r := rand.New(rand.NewSource(seed))
	var out [][]byte
	for _, kind := range pktgen.MalformKinds() {
		for i := 0; i < 5; i++ {
			out = append(out, pktgen.Malform(base, kind, r))
		}
	}
	for _, n := range []int{0, 1, 13, 14, 33, 39, 40, 41, 48, len(base)} {
		out = append(out, append([]byte(nil), base[:n]...))
	}
	for i := 0; i < 20; i++ {
		pkt := make([]byte, 48+r.Intn(64))
		r.Read(pkt)
		out = append(out, pkt)
	}
	return out
}

// TestFuzzDifferentialMalformedCorpus runs the malformed seed corpus
// through random programs with bounds-check elision disabled, so the
// programs' own 40-byte check stays in hardware and the pipeline must
// match the reference bit for bit on every damaged frame — truncated,
// zero-length and jumbo alike.
func TestFuzzDifferentialMalformedCorpus(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 6
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		prog, _, err := generateProgram(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fuzzDifferential(t, seed, prog, core.Options{DisableBoundsElision: true}, malformedCorpus(seed*131))
	}
}

// TestFuzzMalformedCorpusElidedChecks runs the same corpus with elision
// enabled (the shipping configuration): here the hardware bounds check
// owns the short frames, so the properties are weaker but universal —
// no simulator error, every packet retires, every verdict is legal, and
// runts inside the Ethernet/IP headers resolve to the OOB action. Every
// bounds check the generator wrote is elided, and nothing else is.
func TestFuzzMalformedCorpusElidedChecks(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 6
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		prog, checks, err := generateProgram(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		pl, err := core.Compile(prog, core.Options{})
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		if pl.ElidedBoundsChecks != checks {
			t.Fatalf("seed %d: elided %d bounds checks, the program holds %d\n%s",
				seed, pl.ElidedBoundsChecks, checks, ebpf.Disassemble(prog.Instructions))
		}
		sim, err := New(pl, Config{})
		if err != nil {
			t.Fatal(err)
		}
		sim.SetClock(func() uint64 { return 0 })
		var results []Result
		sim.OnComplete(func(res Result) { results = append(results, res) })
		packets := malformedCorpus(seed * 131)
		for _, data := range packets {
			for !sim.InputFree() {
				if err := sim.Step(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
			sim.Inject(data)
			if err := sim.Step(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		if err := sim.RunToCompletion(1 << 22); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(results) != len(packets) {
			t.Fatalf("seed %d: %d of %d packets completed", seed, len(results), len(packets))
		}
		for _, res := range results {
			if res.Action > ebpf.XDPRedirect {
				t.Fatalf("seed %d packet %d: illegal verdict %d", seed, res.Seq, res.Action)
			}
		}
	}
}

// TestFuzzSchedulerInvariants checks, across random programs, that no
// stage holds conflicting instructions and that control flow is
// strictly forward-feeding.
func TestFuzzSchedulerInvariants(t *testing.T) {
	for seed := int64(100); seed < 160; seed++ {
		prog, _, err := generateProgram(seed)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := core.Compile(prog, core.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		g, err := cfg.Build(pl.Transformed)
		if err != nil {
			t.Fatal(err)
		}
		info, err := ddg.Analyze(g)
		if err != nil {
			t.Fatal(err)
		}
		firstStage := map[int]int{}
		for _, blk := range pl.Blocks {
			firstStage[blk.ID] = blk.FirstStage
		}
		for s := range pl.Stages {
			ops := pl.Stages[s].Ops
			for i := 0; i < len(ops); i++ {
				for j := i + 1; j < len(ops); j++ {
					for _, a := range append([]int{ops[i].Index}, ops[i].FusedIdx...) {
						for _, c := range append([]int{ops[j].Index}, ops[j].FusedIdx...) {
							lo, hi := a, c
							if lo > hi {
								lo, hi = hi, lo
							}
							if info.Conflicts(lo, hi) {
								t.Fatalf("seed %d: stage %d holds conflicting instructions %d,%d", seed, s, a, c)
							}
						}
					}
				}
				for _, succ := range []int{ops[i].TakenBlock, ops[i].FallBlock} {
					if succ >= 0 && firstStage[succ] <= s {
						t.Fatalf("seed %d: stage %d enables block %d at stage %d (backwards)",
							seed, s, succ, firstStage[succ])
					}
				}
			}
		}
	}
}
