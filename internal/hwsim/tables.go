package hwsim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"ehdl/internal/core"
	"ehdl/internal/ddg"
	"ehdl/internal/ebpf"
	"ehdl/internal/maps"
	"ehdl/internal/obs"
	"ehdl/internal/protect"
	"ehdl/internal/vm"
)

// microOp is one entry of the execution table: an op, or one instruction
// of a fused ALU chain, or the commit that follows a map write (both
// successive entries of the op's stage and block). What the loop reads
// per packet sits here rather than behind *core.Op (kept for error text
// and the generic path): the stage, the block that gates it, the blocks
// it enables, and its code with the operands compileOp decoded once per
// Sim, which execStage's switch runs inline. opRun, the one code that
// calls out, is left for what touches a map or a helper, an access no
// code covers, and an op that carries a hook.
type microOp struct {
	*core.Op
	code         opCode
	opc          uint8 // opALU, opJmp: the instruction's opcode byte; opAtomicMap: its atomic op
	dst, src     ebpf.Register
	size, off    int    // an access's width in bytes and offset into its region
	imm          uint64 // the immediate, sign-extended; a shift count masked; a commit's flush flag
	stage, block int
	skip         int // index in Sim.ops just past this op's run of same-block ops
	fall         int // block enabled when a non-branch op ends its block, -1 none
	taken, other int // a branch's successors, -1 none
	val          int // the map whose looked-up value a map-value code accesses
	run          func(j *job) error
}

// opCode is what execStage does for one microOp. K and X are an ALU or
// jump op's immediate and register forms, and X is always K plus one;
// the memory codes run load, store-immediate, store-register per region.
type opCode uint8

const (
	opRun    opCode = iota // op.run
	opALU                  // an ALU form with no code of its own: vm.EvalALU
	opJmp                  // a jump with no code of its own: ebpf.JumpOp.Compare
	opExit                 // latch R0 as the verdict
	opCommit               // a pipelined map write's commit (Sim.commit)
	opMovK                 // also LDDW, mov32 of an immediate, a zero xdp_md field
	opMovX
	opMov32X
	opAddK
	opAddX
	opSubK
	opSubX
	opMulK
	opMulX
	opAndK // also a byte swap to little endian: a truncation on this little-endian model
	opAndX
	opOrK
	opOrX
	opXorK
	opXorX
	opLshK
	opLshX
	opRshK
	opRshX
	opArshK
	opArshX
	opNeg
	opBE16
	opBE32
	opBE64
	opJA
	opJEqK
	opJEqX
	opJNeK
	opJNeX
	opJGtK
	opJGtX
	opJGeK
	opJGeX
	opJLtK
	opJLtX
	opJLeK
	opJLeX
	opJSetK
	opJSetX
	opLdStack
	opStStackK
	opStStackX
	opLdPkt
	opStPktK
	opStPktX
	opLdMap
	opStMapK
	opStMapX
	opAtomicMap // lock add, or, and or xor without fetch
	opLdData    // xdp_md data or data_meta
	opLdEnd     // xdp_md data_end
)

// aluCodes and jmpCodes hold the K code of each 64-bit ALU and jump
// operation that has codes of its own, by the operation's high nibble.
var (
	aluCodes = [16]opCode{
		ebpf.ALUMov >> 4: opMovK, ebpf.ALUAdd >> 4: opAddK, ebpf.ALUSub >> 4: opSubK, ebpf.ALUMul >> 4: opMulK,
		ebpf.ALUAnd >> 4: opAndK, ebpf.ALUOr >> 4: opOrK, ebpf.ALUXor >> 4: opXorK,
		ebpf.ALULsh >> 4: opLshK, ebpf.ALURsh >> 4: opRshK, ebpf.ALUArsh >> 4: opArshK,
	}
	jmpCodes = [16]opCode{
		ebpf.JumpEq >> 4: opJEqK, ebpf.JumpNE >> 4: opJNeK, ebpf.JumpGT >> 4: opJGtK, ebpf.JumpGE >> 4: opJGeK,
		ebpf.JumpLT >> 4: opJLtK, ebpf.JumpLE >> 4: opJLeK, ebpf.JumpSet >> 4: opJSetK,
	}
)

// errNoLookup is a map-value access by a packet whose lookup missed.
var errNoLookup = errors.New("map access without a preceding lookup hit")

// loadLE and storeLE access a little-endian value of size bytes.
func loadLE(b []byte, size int) uint64 {
	switch size {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	}
	return binary.LittleEndian.Uint64(b)
}

func storeLE(b []byte, size int, v uint64) {
	switch size {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	default:
		binary.LittleEndian.PutUint64(b, v)
	}
}

// aluCode decodes an ALU instruction: a code of its own where one
// computes exactly what vm.EvalALU does, opALU otherwise. vm.EvalALU
// also decides which instructions are ALU ops at all.
func aluCode(m *microOp, ins ebpf.Instruction) error {
	if _, err := vm.EvalALU(ins, 0, 1); err != nil {
		return err
	}
	m.code, m.opc, m.dst, m.src, m.imm = opALU, ins.Op, ins.Dst, ins.Src, uint64(int64(ins.Imm))
	op, x := ins.ALUOp(), opCode(ins.Source()>>3)
	switch {
	case op == ebpf.ALUEnd:
		switch {
		case ins.Imm != 16 && ins.Imm != 32 && ins.Imm != 64:
		case x == 0:
			m.code, m.imm = opAndK, 1<<uint(ins.Imm)-1
		case ins.Imm == 16:
			m.code = opBE16
		case ins.Imm == 32:
			m.code = opBE32
		default:
			m.code = opBE64
		}
	case ins.Class() == ebpf.ClassALU && op == ebpf.ALUMov && x == 0:
		m.code, m.imm = opMovK, uint64(uint32(ins.Imm))
	case ins.Class() == ebpf.ClassALU && op == ebpf.ALUMov:
		m.code = opMov32X
	case ins.Class() == ebpf.ClassALU:
	case op == ebpf.ALUNeg:
		m.code = opNeg
	case aluCodes[op>>4] != opRun:
		m.code = aluCodes[op>>4] + x
		if op == ebpf.ALULsh || op == ebpf.ALURsh || op == ebpf.ALUArsh {
			m.imm &= 63
		}
	}
	return nil
}

// jmpCode decodes a conditional jump the same way, against
// ebpf.JumpOp.Compare.
func jmpCode(m *microOp, ins ebpf.Instruction) error {
	op := ins.JumpOp()
	if _, err := op.Compare(0, 0, false); err != nil {
		return err
	}
	m.code, m.opc, m.dst, m.src, m.imm = opJmp, ins.Op, ins.Dst, ins.Src, uint64(int64(ins.Imm))
	switch x := opCode(ins.Source() >> 3); {
	case op == ebpf.JumpAlways:
		m.code = opJA
	case ins.Class() == ebpf.ClassJMP && jmpCodes[op>>4] != opRun:
		m.code = jmpCodes[op>>4] + x
	}
	return nil
}

// jumps is the generic jump's predicate over the register file.
func (m *microOp) jumps(r *[ebpf.NumRegisters]uint64) bool {
	lhs, rhs, is32 := r[m.dst], m.imm, ebpf.Class(m.opc&7) == ebpf.ClassJMP32
	if ebpf.Source(m.opc&8) == ebpf.SourceX {
		rhs = r[m.src]
	}
	if is32 {
		lhs, rhs = uint64(uint32(lhs)), uint64(uint32(rhs))
	}
	on, _ := ebpf.JumpOp(m.opc&0xf0).Compare(lhs, rhs, is32)
	return on
}

// accessCode decodes a load, store or atomic whose base the compiler
// elided — it lands at a static offset into the stack frame, the packet
// data, xdp_md or the looked-up map value — into m's operands and
// returns its code. Only what provably matches MemSpace.LoadAt/StoreAt
// gets one: anything else (a register-relative or out-of-frame access,
// an odd xdp_md field, a huge offset, a store to xdp_md, an atomic that
// fetches or lands outside map memory) gets opRun, and the generic path
// keeps its exact run-time error.
func (s *Sim) accessCode(m *microOp) opCode {
	ins, acc := m.Ins, m.Access
	if !m.BaseElided || acc == nil {
		return opRun
	}
	m.dst, m.src, m.size, m.off, m.imm = ins.Dst, ins.Src, ins.MemSize().Bytes(), int(acc.Off), uint64(int64(ins.Imm))
	form := opCode(0) // load
	switch {
	case ins.IsAtomic():
		if a := ins.AtomicOp(); acc.Area != ddg.AreaMap || a != ebpf.AtomicAdd && a != ebpf.AtomicOr && a != ebpf.AtomicAnd && a != ebpf.AtomicXor {
			return opRun
		}
		form = opAtomicMap - opLdMap
		m.opc = uint8(ins.AtomicOp())
	case ins.Class() == ebpf.ClassST:
		form = 1
	case ins.Class() == ebpf.ClassSTX:
		form = 2
	}
	switch acc.Area {
	case ddg.AreaStack: // frame-relative, negative
		if m.off += ebpf.StackSize; m.off >= 0 && m.off+m.size <= ebpf.StackSize {
			return opLdStack + form
		}
	case ddg.AreaPacket: // data-relative: only the data end can be crossed
		if m.off >= 0 && m.off <= 1<<20 {
			return opLdPkt + form
		}
	case ddg.AreaCtx:
		switch {
		case form != 0 || m.size != 4:
		case m.off == ebpf.XDPMDData || m.off == ebpf.XDPMDDataMeta:
			return opLdData
		case m.off == ebpf.XDPMDDataEnd:
			return opLdEnd
		case m.off == ebpf.XDPMDIngressIfindex || m.off == ebpf.XDPMDRxQueueIndex || m.off == ebpf.XDPMDEgressIfindex:
			m.imm = 0
			return opMovK
		}
	case ddg.AreaMap:
		if m.MapID >= 0 && m.MapID < len(s.pl.Transformed.Maps) && m.off >= 0 && m.off+m.size <= s.pl.Transformed.Maps[m.MapID].ValueSize {
			m.val = m.MapID
			return opLdMap + form
		}
	}
	return opRun
}

// mapUnit is what the simulator keeps per map: the hazard geometry of
// its eHDLmap block, read off once (the zero value — no flush, no write
// delay — for a map the pipeline never touches), and the Flush
// Evaluation Block's index.
type mapUnit struct {
	keySize    int
	needsFlush bool
	flushFrom  int // the stage flush victims re-enter at
	warDepth   int
	firstRead  int // lowest read stage; the pipeline depth when there is none
	lastWrite  int // highest write stage; 0 when there is none
	// feb counts, per key-hash bucket, the armed reads of every packet in
	// the Sim (job.reads): noteRead counts one in, clearReads counts a
	// packet's out when it retires, is restored or re-armed. Reads of
	// older packets and of colliding keys are counted too, so a bucket
	// can only over-state the stale readers a write has — never miss one
	// — which makes "nothing here but the writer's own read" an exact
	// reason to skip the pipeline walk. Nil unless needsFlush.
	feb []uint32
}

const febBuckets = 256

// febBucket hashes a key to its bucket of a map's FEB index.
func febBucket(key []byte) int {
	h := uint64(len(key))
	for _, b := range key {
		h = (h ^ uint64(b)) * 0x9e3779b97f4a7c15
	}
	return int(h >> 56)
}

func newMapUnit(spec ebpf.MapSpec, mb *core.MapBlock, depth int) mapUnit {
	u := mapUnit{keySize: spec.KeySize, firstRead: depth}
	if mb == nil {
		return u
	}
	u.needsFlush, u.flushFrom, u.warDepth = mb.NeedsFlush, mb.FlushFromStage, mb.WARDepth
	u.firstRead = slices.Min(append([]int{depth}, mb.ReadStages...))
	u.lastWrite = slices.Max(append([]int{0}, mb.WriteStages...))
	if u.needsFlush {
		u.feb = make([]uint32, febBuckets)
	}
	return u
}

// private reports whether op touches nothing but its own packet's
// registers, stack, frame and verdict. Map calls, helpers (the clock
// among them), atomics and accesses to map or unknown memory are shared:
// another in-flight packet, or the cycle count, can tell when they ran.
func private(op *core.Op) bool {
	switch op.Kind {
	case core.OpALU, core.OpLDDW, core.OpBranch, core.OpExit:
		return true
	case core.OpLoad, core.OpStore:
		if op.Access != nil {
			switch op.Access.Area {
			case ddg.AreaStack, ddg.AreaPacket, ddg.AreaCtx:
				return true
			}
		}
	}
	return false
}

// stackWriteExtent statically bounds the stack bytes the pipeline can
// write. Stores and atomics with an elided static base either hit a
// known stack slot (extending the extent) or a non-stack area (no
// stack effect); a register-relative store could land anywhere, so it
// widens the extent to the full frame. Helpers and map calls read the
// stack but never write it.
func stackWriteExtent(pl *core.Pipeline) (lo, hi int) {
	lo, hi = ebpf.StackSize, 0
	extend := func(a, b int) {
		if a < lo {
			lo = a
		}
		if b > hi {
			hi = b
		}
	}
	for t := range pl.Stages {
		for i := range pl.Stages[t].Ops {
			op := &pl.Stages[t].Ops[i]
			if op.Kind != core.OpStore && op.Kind != core.OpAtomic {
				continue
			}
			if op.BaseElided && op.Access != nil {
				if op.Access.Area == ddg.AreaStack {
					slot := ebpf.StackSize + int(op.Access.Off)
					extend(slot, slot+op.Ins.MemSize().Bytes())
				}
				continue
			}
			return 0, ebpf.StackSize
		}
	}
	if hi < lo {
		lo, hi = 0, 0
	}
	return lo, hi
}

// buildTables flattens the pipeline into microOps and draws the line the
// execute loop walks along. A stage is visited when a packet standing in
// it can affect or observe anything beyond itself — stage 0 (injection),
// an elastic stage (the replay snapshot is taken on entry) and any stage
// with a shared op; the run of unvisited stages behind a visited one is
// its burst. A fault injector and probes look at or strike per-stage
// state, so under them every stage is visited and every burst is empty;
// a Burst has no other packet in flight, so only stage 0 is: the same
// loop over a different table. The loop runs a block's ops as one run,
// so a stage must hold the ops of one block (core's scheduler gives
// every block stages of its own).
func (s *Sim) buildTables() error {
	n := len(s.pl.Stages)
	all := s.cfg.Faults != nil || s.probes != nil
	s.generic = all || s.cfg.Protection != protect.LevelNone
	if s.oneBurst && s.generic {
		return fmt.Errorf("hwsim: faults, probes and protection need the stage-by-stage table")
	}
	if s.stackLo, s.stackHi = stackWriteExtent(s.pl); s.cfg.Faults != nil {
		s.stackLo, s.stackHi = 0, ebpf.StackSize // an SEU strikes any byte
	}
	s.opOff = make([]int, n+1)
	s.visit = make([]uint64, (n+63)/64)
	s.burstEnd = make([]int, n)
	for t := range s.pl.Stages {
		stage := &s.pl.Stages[t]
		shared := all || t == 0 || s.elasticStage[t]
		for i := range stage.Ops { // a NOP or helper-wait stage has none
			op := &stage.Ops[i]
			if b := stage.Ops[0].BlockID; op.BlockID != b {
				return fmt.Errorf("hwsim: stage %d holds ops of blocks %d and %d", t, b, op.BlockID)
			}
			m := microOp{Op: op, stage: t, block: op.BlockID, fall: op.FallThrough(), taken: op.TakenBlock, other: op.FallBlock}
			if err := s.compileOp(m); err != nil {
				return fmt.Errorf("hwsim: stage %d (%s): %w", t, op.Ins, err)
			}
			shared = shared || !s.oneBurst && !private(op)
		}
		s.opOff[t+1] = len(s.ops)
		if shared {
			setBit(s.visit, t)
		}
	}
	for t, end := n-1, n-1; t >= 0; t-- {
		s.burstEnd[t] = end
		if hasBit(s.visit, t) {
			end = t - 1
		}
	}
	// Nothing executes inside a run of ops of one disabled block, so
	// nothing can enable it before the run ends: the loop hops over it.
	for i := len(s.ops) - 1; i >= 0; i-- {
		s.ops[i].skip = i + 1
		if i+1 < len(s.ops) && s.ops[i+1].block == s.ops[i].block {
			s.ops[i].skip = s.ops[i+1].skip
		}
	}
	return nil
}

// compileOp decides, once, everything about m's op that does not depend
// on the packet — its code and operands, its static address, which map
// and helper it drives, which hooks ride along — and appends its entries
// to the table. A plain run codes every ALU op, branch, exit and
// statically addressed access; s.generic — faults, probes, protection —
// and a map with a write delay buffer put accesses on the generic path,
// which resolves virtual addresses and carries every hook.
func (s *Sim) compileOp(m microOp) (err error) {
	op, fall := m.Op, m.fall
	switch op.Kind {
	case core.OpALU:
		// A fused chain evaluates combinationally after its head: one
		// entry per instruction, the last enabling the fall-through.
		for k, ins := range append([]ebpf.Instruction{op.Ins}, op.Fused...) {
			if m.fall = -1; k == len(op.Fused) {
				m.fall = fall
			}
			if err := aluCode(&m, ins); err != nil {
				return err
			}
			s.ops = append(s.ops, m)
		}
		return nil
	case core.OpLDDW:
		m.code, m.dst, m.imm = opMovK, op.Ins.Dst, uint64(op.Ins.Imm64)
		if op.MapID >= 0 {
			m.imm = vm.MapPointer(op.MapID)
		}
	case core.OpBranch:
		err = jmpCode(&m, op.Ins)
		if pr := s.probes; pr != nil && err == nil {
			b := m
			m.code, m.run = opRun, func(j *job) error {
				on, next := b.jumps(&j.st.Regs), b.other
				if on {
					next = b.taken
				}
				j.enable(next)
				pr.onPredicate(s.cycle, j, b.stage, on, next)
				return nil
			}
		}
	case core.OpExit:
		m.code = opExit
	case core.OpLoad, core.OpStore, core.OpAtomic:
		s.compileMem(m)
		return nil
	case core.OpMapCall:
		m.run, err = s.compileMapCall(m)
	case core.OpHelper:
		h := op.Helper
		m.run = func(j *job) error {
			redirect, err := s.exec.CallHelper(j.st, h)
			if err != nil {
				return err
			}
			if redirect != 0 {
				j.redirect = redirect
			}
			j.enable(fall)
			return nil
		}
		if h.CPUOnly() {
			// Stubbed as a constant block (footnote 2 of the paper).
			m.run = func(j *job) error {
				clear(j.st.Regs[ebpf.R0 : ebpf.R5+1])
				j.enable(fall)
				return nil
			}
		}
	default:
		err = fmt.Errorf("unknown op kind %v", op.Kind)
	}
	s.ops = append(s.ops, m)
	return err
}

// compileMem compiles a load, store or atomic. A statically addressed
// access gets its code, which runs against the stack, the frame or the
// value slice the packet's lookup kept; a write to map memory is
// followed by an opCommit entry — what the map block does with it:
// count the commit, ask the Flush Evaluation Block — unless the table is
// a Burst's, which replays nothing and flushes nothing.
func (s *Sim) compileMem(m microOp) {
	op, fall := m, m.fall
	code, isMap := s.accessCode(&m), m.Access != nil && m.Access.Area == ddg.AreaMap
	switch {
	case s.generic || code == opRun || isMap && s.maps[m.MapID].warDepth != 0:
		m.run = func(j *job) error { return s.store(j, &op) }
		if m.Kind == core.OpLoad {
			m.run = func(j *job) error { return s.load(j, &op) }
		}
	case isMap && m.Kind != core.OpLoad && !s.oneBurst:
		m.code, m.fall = code, -1
		s.ops = append(s.ops, m)
		m.code, m.fall, m.imm = opCommit, fall, 0
		if m.Kind == core.OpStore || s.pl.Options.DisableAtomics {
			m.imm = 1 // an atomic primitive serialises in the map block; lowered to a read-modify-write pair it flushes
		}
	default:
		m.code = code
	}
	s.ops = append(s.ops, m)
}

// compileMapCall compiles the eHDLmap block interface: key (and value)
// from their static stack slots or argument registers, result into R0.
func (s *Sim) compileMapCall(m microOp) (func(j *job) error, error) {
	op, id, t, fall := m.Op, m.MapID, m.stage, m.fall
	if id < 0 || id >= len(s.maps) {
		return nil, fmt.Errorf("map call references undeclared map %d", id)
	}
	spec, unit := s.pl.Transformed.Maps[id], &s.maps[id]
	if op.Helper == ebpf.HelperMapLookupElem && op.KeyOffKnown && !s.generic && unit.warDepth == 0 {
		if run := s.staticLookup(id, int(op.KeyStackOff)+ebpf.StackSize, fall); run != nil {
			return run, nil
		}
	}
	var mop obs.MapOp
	var call func(j *job, key []byte) error
	switch op.Helper {
	case ebpf.HelperMapLookupElem:
		mop = obs.MapOpLookup
		call = func(j *job, key []byte) error {
			addr, val := s.exec.LookupValue(id, key)
			if unit.warDepth != 0 {
				if sv, ok := s.shadowLookup(id, key, j); ok {
					// An older packet must observe the pre-write value:
					// redirect the pointer at a stable shadow address, or
					// at nothing when the entry did not exist before the
					// younger write.
					addr, val = 0, sv
					if sv != nil {
						addr = s.exec.Mem.ShadowAddress(id, sv)
					}
				}
			}
			l := &j.lookups[id]
			l.addr, l.val, l.key, l.valid = addr, val, append(l.key[:0], key...), true
			if unit.needsFlush {
				// The Flush Evaluation Block stores every unconfirmed read
				// address: a program that looks up several keys (e.g. forward
				// and reverse flow entries) keeps all of them armed until the
				// packet retires or is flushed.
				s.noteRead(j, id, key)
			}
			j.st.Regs[ebpf.R0] = addr
			return nil
		}
	case ebpf.HelperMapUpdateElem:
		mop = obs.MapOpUpdate
		call = func(j *job, key []byte) error {
			val, err := s.helperArg(s.valBuf, j, op.ValOffKnown, op.ValStackOff, ebpf.R3, spec.ValueSize)
			if err != nil {
				return fmt.Errorf("map %q value: %w", spec.Name, err)
			}
			s.preWriteShadowKey(j, id, key)
			j.st.Regs[ebpf.R0] = s.exec.UpdateResult(id, key, val, maps.UpdateFlag(j.st.Regs[ebpf.R4]))
			s.commit(j, id, key, true, t)
			return nil
		}
	case ebpf.HelperMapDeleteElem:
		mop = obs.MapOpDelete
		call = func(j *job, key []byte) error {
			s.preWriteShadowKey(j, id, key)
			j.st.Regs[ebpf.R0] = s.exec.DeleteResult(id, key)
			s.commit(j, id, key, true, t)
			return nil
		}
	default:
		return nil, fmt.Errorf("unsupported map helper %s", op.Helper.Name())
	}
	return func(j *job) error {
		key, err := s.helperArg(s.keyBuf, j, op.KeyOffKnown, op.KeyStackOff, ebpf.R2, spec.KeySize)
		if err != nil {
			return fmt.Errorf("map %q key: %w", spec.Name, err)
		}
		if s.probes != nil {
			s.probes.onMapAccess(s.cycle, j, t, id, mop)
		}
		if err := call(j, key); err != nil {
			return err
		}
		// The helper scratches its argument registers like a real call.
		clear(j.st.Regs[ebpf.R1 : ebpf.R5+1])
		j.enable(fall)
		return nil
	}, nil
}

// staticLookup is the lookup of a plain run whose key sits in a static
// stack slot [lo, lo+KeySize) and whose map delays no write: the slot is
// the key as it stands, the map handle is captured — only protection and
// metrics swap a wrapper into the set, and they take the generic
// closures — and nothing is decided per packet. A Burst keeps no copy of
// the key: what reads one back is a hazard check, a shadow or a write
// tap, and it has none of them. Nil when the slot is out of frame or the
// environment lacks the map: the generic closure reports those.
func (s *Sim) staticLookup(id, lo, fall int) func(j *job) error {
	mem, hi := s.exec.Mem, lo+s.maps[id].keySize
	m, ok := s.env.Maps.ByID(id)
	if !ok || lo < 0 || hi > ebpf.StackSize {
		return nil
	}
	mp := m.(maps.Slotted) // vm.NewMemSpace checked the set
	flush, keyed := s.maps[id].needsFlush, !s.oneBurst
	return func(j *job) error {
		key := j.st.Stack[lo:hi:hi]
		l := &j.lookups[id]
		l.addr, l.val, l.valid = 0, nil, true
		if v, slot, ok := mp.LookupSlot(key); ok {
			l.addr, l.val = mem.ValueAddress(id, slot, v), v
		}
		if keyed {
			l.key = append(l.key[:0], key...)
		}
		if flush {
			s.noteRead(j, id, key)
		}
		j.st.Regs[ebpf.R0] = l.addr
		clear(j.st.Regs[ebpf.R1 : ebpf.R5+1])
		j.enable(fall)
		return nil
	}
}
