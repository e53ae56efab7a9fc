package hdl

import (
	"ehdl/internal/core"
	"ehdl/internal/ddg"
	"ehdl/internal/ebpf"
)

// netlist is the one structural description of a design: what the
// compiled pipeline instantiates, decided once by elaborate. Generate
// prints it and the Estimate* functions fold over it; nothing else in
// the package reads an instruction or a labeled access.
type netlist struct {
	src       *core.Pipeline // banner figures and the disassembly quoted in comments
	frameBits int
	stages    []stageNode // one per pipeline stage, then the output latch
	ops       []opNode    // every stage's primitives, in stage order
	maps      []mapNode
}

// stageNode is one register slice and the clocked process behind it. The
// last one is the output latch: signals shaped like the last stage's, no
// process.
type stageNode struct {
	kind             core.StageKind
	declared         uint16 // registers with a signal at this slice
	latched          uint16 // registers the stage carries: flip-flops, forwarded from the slice before
	stackLo, stackHi int    // carried stack window, bytes of the 512-byte frame
	frames           int    // frame copies: the current one plus the bypass window
	lo, hi           int    // the stage's primitives are ops[lo:hi]
	heads            int    // of them, those that open their own guard
}

func (st *stageNode) stackBits() int { return (st.stackHi - st.stackLo) * 8 }

// opNode is one instantiated primitive under a block-enable guard: it
// drives x (and y) from a and b.
type opNode struct {
	src         *core.Op // quoted in comments only
	kind        primKind
	chained     bool   // fused tail: under the previous op's guard, a is its fresh destination
	width       int16  // datapath bits of an ALU primitive, bytes of a memory access
	stage       int32  // x and y sit at the next register slice, a and b at this one
	guard       int32  // block enable the op runs under
	taken, fall int32  // block enables raised at the next slice, -1 none
	k           uint64 // the literal, where b is one
	x, y, a, b  ref
}

// mapNode is one eHDLmap block, its geometry computed once.
type mapNode struct {
	id, entries            int
	name                   string
	engine                 mapEngine
	keyBits, valueBits     int
	dataBits               int // on-chip storage of the entries
	channels               int // one per distinct accessing stage:
	reads, writes, atomics int // by kind
	warDepth               int // write-delay registers (Figure 6)
	flushEval              bool
	window                 int // hazard window the Flush Evaluation Block compares over
	sharing                core.Sharing
}

type mapEngine uint8

const (
	engineDirect mapEngine = iota // the index is the address
	engineHash                    // hash function + probe engine
	engineTrie                    // longest-prefix trie walker
)

// sigKind names a family of signals; a ref picks one of them (register
// slice or map at, register idx) and a bit slice of it (width 0: all).
type sigKind uint8

const (
	sigNone sigKind = iota
	sigLit          // the op's literal k, width bits wide (0: 64)
	sigReg
	sigFrame
	sigStack
	sigDone
	sigVerdict
	sigMapReq
	sigMapWe
	sigMapRdata
	// Pseudo-operands the text names where it has no signal (ROADMAP 2(iii)).
	sigMem      // an access the analysis could not label
	sigDynLanes // a packet access at a run-time offset
	sigCtx      // an xdp_md field
	sigUnknown
)

type ref struct {
	sig   sigKind
	idx   int16
	width int16
	at    int32
	lo    int32
}

func reg(at int32, r ebpf.Register) ref { return ref{sig: sigReg, at: at, idx: int16(r)} }

// primKind is a template hardware primitive (Section 3.4). The ALU and
// compare primitives are numbered by their opcode's high nibble.
type primKind uint8

const (
	primALU     primKind = 0x00 // + ebpf.ALUOp >> 4
	primCompare primKind = 0x10 // + ebpf.JumpOp >> 4
)

const (
	primHandle     primKind = 0x20 + iota // map handle: static wiring
	primLoadStatic                        // byte lanes wired at a compile-time offset
	primLoadDynamic
	primStoreStatic
	primStoreDynamic
	primAtomic
	primExit
	primMapRead // channel request of a map call site
	primMapWrite
	primHelperRealign // xdp_adjust_head/tail
	primHelperClock
	primHelperRandom
	primHelperRedirect
	primHelperCsum
	primHelperStub
	numPrims
)

func (k primKind) compares() bool { return k&^0xf == primCompare }

// primitive is one row of the table both outputs read: the VHDL a
// primitive prints as and what it costs. A template is the op's body,
// one statement per line (a compare's is its condition): $x $y $a $b
// name the node's operands, $n its access bytes, $H $O $F $P $M quote
// the disassembly. The per-bit price scales with the datapath width.
type primitive struct {
	vhdl          string
	fixed         Resources
	lutsPerBit    float64
	dspsPer16Bits int
	regOnly       bool // priced per bit for a register operand only: a constant shift is wiring
	wiring        bool // free by construction
}

const helperVHDL = "-- helper block $F (depth $P)"

var compare = Resources{LUTs: 44} // 64-bit compare + enable fan-out

var primitives = [numPrims]primitive{
	ebpf.ALUMov >> 4:  {vhdl: "$x <= $b;", wiring: true},
	ebpf.ALUAdd >> 4:  {vhdl: "$x <= $a + $b;", lutsPerBit: 1},
	ebpf.ALUSub >> 4:  {vhdl: "$x <= $a - $b;", lutsPerBit: 1},
	ebpf.ALUMul >> 4:  {vhdl: "$x <= resize($a * $b, 64);", lutsPerBit: 1, dspsPer16Bits: 1},
	ebpf.ALUDiv >> 4:  {vhdl: "$x <= $a / $b; -- iterative divider block", lutsPerBit: 20}, // rare in network code
	ebpf.ALUMod >> 4:  {vhdl: "$x <= $a mod $b; -- iterative divider block", lutsPerBit: 20},
	ebpf.ALUAnd >> 4:  {vhdl: "$x <= $a and $b;", lutsPerBit: 0.5},
	ebpf.ALUOr >> 4:   {vhdl: "$x <= $a or $b;", lutsPerBit: 0.5},
	ebpf.ALUXor >> 4:  {vhdl: "$x <= $a xor $b;", lutsPerBit: 0.5},
	ebpf.ALULsh >> 4:  {vhdl: "$x <= shift_left($a, to_integer($b(5 downto 0)));", lutsPerBit: 4, regOnly: true}, // barrel shifter
	ebpf.ALURsh >> 4:  {vhdl: "$x <= shift_right($a, to_integer($b(5 downto 0)));", lutsPerBit: 4, regOnly: true},
	ebpf.ALUArsh >> 4: {vhdl: "$x <= unsigned(shift_right(signed($a), to_integer($b(5 downto 0))));", lutsPerBit: 4, regOnly: true},
	ebpf.ALUNeg >> 4:  {vhdl: "$x <= (not $a) + 1;", lutsPerBit: 1},
	ebpf.ALUEnd >> 4:  {vhdl: "$x <= $a; -- byte swap is wiring", wiring: true},

	0x10 + ebpf.JumpAlways>>4: {vhdl: "true", fixed: compare},
	0x10 + ebpf.JumpEq>>4:     {vhdl: "$a = $b", fixed: compare},
	0x10 + ebpf.JumpNE>>4:     {vhdl: "$a /= $b", fixed: compare},
	0x10 + ebpf.JumpGT>>4:     {vhdl: "$a > $b", fixed: compare},
	0x10 + ebpf.JumpGE>>4:     {vhdl: "$a >= $b", fixed: compare},
	0x10 + ebpf.JumpLT>>4:     {vhdl: "$a < $b", fixed: compare},
	0x10 + ebpf.JumpLE>>4:     {vhdl: "$a <= $b", fixed: compare},
	0x10 + ebpf.JumpSet>>4:    {vhdl: "($a and $b) /= to_unsigned(0, 64)", fixed: compare},
	0x10 + ebpf.JumpSGT>>4:    {vhdl: "signed($a) > signed($b)", fixed: compare},
	0x10 + ebpf.JumpSGE>>4:    {vhdl: "signed($a) >= signed($b)", fixed: compare},
	0x10 + ebpf.JumpSLT>>4:    {vhdl: "signed($a) < signed($b)", fixed: compare},
	0x10 + ebpf.JumpSLE>>4:    {vhdl: "signed($a) <= signed($b)", fixed: compare},

	primHandle:       {vhdl: "-- map handle $H is static wiring", wiring: true},
	primLoadStatic:   {vhdl: "$x <= unsigned($a); -- $n-byte load", fixed: Resources{LUTs: 10}},
	primLoadDynamic:  {vhdl: "$x <= unsigned($a); -- $n-byte load", fixed: Resources{LUTs: 220}}, // byte-lane multiplexer
	primStoreStatic:  {vhdl: "$x <= std_logic_vector($b); -- $n-byte store", fixed: Resources{LUTs: 10}},
	primStoreDynamic: {vhdl: "$x <= std_logic_vector($b); -- $n-byte store", fixed: Resources{LUTs: 220}},
	primAtomic:       {vhdl: "-- atomic $O on $a (in-place primitive)", fixed: Resources{LUTs: 160}}, // read-modify-write
	primExit:         {vhdl: "$x <= '1';\n$y <= std_logic_vector($a(2 downto 0));", fixed: Resources{LUTs: 12}},
	// The per-call-site channel interface; the shared block is a mapNode.
	primMapRead:        {vhdl: "-- $F on eHDLmap $M (channel request)\n$x <= '1';", fixed: Resources{LUTs: 120, FFs: 160}},
	primMapWrite:       {vhdl: "-- $F on eHDLmap $M (channel request)\n$x <= '1';\n$y <= '1';", fixed: Resources{LUTs: 120, FFs: 160}},
	primHelperRealign:  {vhdl: helperVHDL, fixed: Resources{LUTs: 2100, FFs: 1200}}, // frame realignment shifter
	primHelperClock:    {vhdl: helperVHDL, fixed: Resources{LUTs: 90, FFs: 64}},     // free-running counter sample
	primHelperRandom:   {vhdl: helperVHDL, fixed: Resources{LUTs: 120, FFs: 96}},    // xorshift block
	primHelperRedirect: {vhdl: helperVHDL, fixed: Resources{LUTs: 60, FFs: 32}},
	primHelperCsum:     {vhdl: helperVHDL, fixed: Resources{LUTs: 320, FFs: 128}},
	primHelperStub:     {vhdl: helperVHDL, fixed: Resources{LUTs: 50, FFs: 16}}, // CPU-only helpers
}

// callClobbers is the register set a helper call defines (R0-R5).
const callClobbers = 0x3f

// elaborate decides what hardware a compiled pipeline becomes.
func elaborate(p *core.Pipeline) *netlist {
	n := &netlist{
		src:       p,
		frameBits: p.FrameBytes() * 8,
		stages:    make([]stageNode, 0, len(p.Stages)+1),
		ops:       make([]opNode, 0, len(p.Transformed.Instructions)),
		maps:      elaborateMaps(p),
	}
	var defs uint16
	for s := range p.Stages {
		st := &p.Stages[s]
		n.stages = append(n.stages, stageNode{
			kind: st.Kind, latched: st.CarryRegs, stackLo: st.CarryStackLo, stackHi: st.CarryStackHi,
			frames: 1 + st.FrameBypass, lo: len(n.ops), heads: len(st.Ops),
		})
		for k := range st.Ops {
			defs |= n.elaborateOp(int32(s), &st.Ops[k])
		}
		n.stages[s].hi = len(n.ops)
	}
	out := n.stages[len(n.stages)-1]
	out.lo, out.heads = out.hi, 0
	n.stages = append(n.stages, out)
	// The declared register set is dense — every register any op defines
	// exists at every slice — so a stage's destination (slice s+1) has a
	// signal even when the next stage prunes it: synthesis trims unused
	// nets, the text stays self-consistent.
	for i := range n.stages {
		n.stages[i].declared = n.stages[i].latched | defs
	}
	return n
}

// elaborateOp appends the primitives one scheduled op instantiates and
// returns the registers they define.
func (n *netlist) elaborateOp(s int32, op *core.Op) (defs uint16) {
	ins, next := &op.Ins, s+1
	o := n.add(s, op, false)
	o.fall = int32(op.FallThrough())
	switch op.Kind {
	case core.OpALU:
		o.alu(ins, reg(s, ins.Dst))
		for i := range op.Fused {
			// The fusion rule keeps a tail on the head's destination and
			// its register operand off it.
			n.add(s, op, true).alu(&op.Fused[i], reg(next, ins.Dst))
		}
		return 1 << ins.Dst
	case core.OpLDDW:
		defs = 1 << ins.Dst
		o.kind = primHandle
		if op.MapID < 0 { // a 64-bit constant is a move of the literal
			o.kind, o.x, o.b, o.k = primALU+primKind(ebpf.ALUMov>>4), reg(next, ins.Dst), ref{sig: sigLit}, uint64(ins.Imm64)
		}
	case core.OpLoad:
		defs = 1 << ins.Dst
		o.kind, o.x, o.a = primLoadDynamic, reg(next, ins.Dst), memOperand(s, op.Access)
		if op.BaseElided {
			o.kind = primLoadStatic
		}
		o.width = int16(ins.MemSize().Bytes())
	case core.OpStore:
		o.kind, o.x, o.b = primStoreDynamic, memOperand(next, op.Access), reg(s, ins.Src)
		if op.BaseElided {
			o.kind = primStoreStatic
		}
		if ins.Class() == ebpf.ClassST {
			o.b, o.k = ref{sig: sigLit}, uint64(uint32(ins.Imm))
		}
		o.width = int16(ins.MemSize().Bytes())
		o.b.width = o.width * 8
	case core.OpAtomic:
		for _, d := range ins.Defs() {
			defs |= 1 << d
		}
		o.kind, o.a = primAtomic, memOperand(s, op.Access)
	case core.OpBranch:
		o.kind, o.a = primCompare+primKind(ins.JumpOp()>>4), reg(s, ins.Dst)
		o.second(ins)
		o.taken, o.fall = int32(op.TakenBlock), int32(op.FallBlock)
	case core.OpExit:
		o.kind, o.a = primExit, reg(s, ebpf.R0)
		o.x, o.y = ref{sig: sigDone, at: next}, ref{sig: sigVerdict, at: next}
	case core.OpMapCall:
		defs = callClobbers
		// Every call site requests on channel 0 (ROADMAP 2(iii)).
		o.kind, o.x = primMapRead, ref{sig: sigMapReq, at: int32(op.MapID), width: 1}
		if op.Helper.WritesMap() {
			o.kind, o.y = primMapWrite, ref{sig: sigMapWe, at: int32(op.MapID), width: 1}
		}
	case core.OpHelper:
		defs = callClobbers
		switch op.Helper {
		case ebpf.HelperXDPAdjustHead, ebpf.HelperXDPAdjustTail:
			o.kind = primHelperRealign
		case ebpf.HelperKtimeGetNs, ebpf.HelperKtimeGetBootNs, ebpf.HelperKtimeGetCoarseNs, ebpf.HelperJiffies64:
			o.kind = primHelperClock
		case ebpf.HelperGetPrandomU32:
			o.kind = primHelperRandom
		case ebpf.HelperRedirect:
			o.kind = primHelperRedirect
		case ebpf.HelperL3CsumReplace, ebpf.HelperL4CsumReplace, ebpf.HelperCsumDiff:
			o.kind = primHelperCsum
		default:
			o.kind = primHelperStub
		}
	}
	return defs
}

// add appends a blank primitive of op at stage s, under op's guard.
func (n *netlist) add(s int32, op *core.Op, chained bool) *opNode {
	n.ops = append(n.ops, opNode{src: op, stage: s, guard: int32(op.BlockID), taken: -1, fall: -1, chained: chained})
	return &n.ops[len(n.ops)-1]
}

// alu fills in an ALU primitive reading a: kind, datapath width, operands.
func (o *opNode) alu(ins *ebpf.Instruction, a ref) {
	o.kind, o.x, o.a, o.width = primALU+primKind(ins.ALUOp()>>4), reg(o.stage+1, ins.Dst), a, 32
	if ins.Class() == ebpf.ClassALU64 {
		o.width = 64
	}
	o.second(ins)
}

// second decodes the register-or-immediate operand of an ALU or jump
// instruction.
func (o *opNode) second(ins *ebpf.Instruction) {
	if o.b = reg(o.stage, ins.Src); ins.Source() != ebpf.SourceX {
		o.b, o.k = ref{sig: sigLit}, uint64(uint32(ins.Imm))
	}
}

// memOperand names the memory a labeled access touches, at register
// slice at.
func memOperand(at int32, acc *ddg.Access) ref {
	if acc == nil {
		return ref{sig: sigMem, at: at}
	}
	lo, width := int32(acc.Off)*8, int16(acc.Size)*8
	switch acc.Area {
	case ddg.AreaPacket:
		if !acc.OffKnown {
			return ref{sig: sigDynLanes, at: at}
		}
		return ref{sig: sigFrame, at: at, lo: lo, width: width}
	case ddg.AreaStack:
		return ref{sig: sigStack, at: at, lo: lo + ebpf.StackSize*8, width: width}
	case ddg.AreaMap:
		return ref{sig: sigMapRdata, at: int32(acc.MapID), lo: lo, width: width}
	case ddg.AreaCtx:
		return ref{sig: sigCtx}
	}
	return ref{sig: sigUnknown}
}

// elaborateMaps builds the map block nodes, the part of the netlist the
// protection, live-update and replication estimates need.
func elaborateMaps(p *core.Pipeline) []mapNode {
	nodes := make([]mapNode, len(p.Maps))
	for i := range p.Maps {
		mb, m := &p.Maps[i], &nodes[i]
		*m = mapNode{
			id: mb.MapID, name: mb.Spec.Name, entries: mb.Spec.MaxEntries,
			keyBits: mb.Spec.KeySize * 8, valueBits: mb.Spec.ValueSize * 8,
			channels: mb.Channels(), reads: len(mb.ReadStages), writes: len(mb.WriteStages), atomics: len(mb.AtomicStages),
			warDepth: mb.WARDepth, flushEval: mb.NeedsFlush, window: mb.L, sharing: mb.Sharing(),
		}
		// Key and value per entry; value only where the index is the
		// address.
		m.dataBits = (m.keyBits + m.valueBits) * m.entries
		switch mb.Spec.Kind {
		case ebpf.MapHash, ebpf.MapLRUHash:
			m.engine = engineHash
		case ebpf.MapLPMTrie:
			m.engine = engineTrie
		case ebpf.MapArray, ebpf.MapDevMap:
			m.dataBits = m.valueBits * m.entries
		}
	}
	return nodes
}
