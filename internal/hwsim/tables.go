package hwsim

import (
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

// microOp is one pipeline op as the execute loop runs it. What the loop
// reads per packet — the op's stage, the block that gates it, the blocks
// it enables — sits here rather than behind *core.Op (kept for error
// text and the generic closures), and exactly one of alu, pred, mem and
// run is set: the op's code, chosen once per Sim by compileOp. The first
// three are vm's closures, called with no wrapper around them.
type microOp struct {
	*core.Op
	stage, block int
	skip         int                     // index in Sim.ops just past this op's run of same-block ops
	fall         int                     // block enabled when a non-branch op ends its block, -1 none
	taken, other int                     // a branch's successors, -1 none
	alu          func(st *vm.State)      // OpALU with its fused tail, OpLDDW
	pred         func(st *vm.State) bool // OpBranch
	mem          vm.MemFn                // statically addressed access that commits nothing
	val          int                     // lookup slot whose value slice mem runs against; the one past the maps is nil
	run          func(j *job) error      // whatever touches a map or a helper; OpExit
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

// staticAccess compiles op's load, store or atomic with vm.SpecializeMem
// and returns nil when the access is register-relative or of a form vm
// does not specialise.
func staticAccess(pl *core.Pipeline, op *core.Op) vm.MemFn {
	if !op.BaseElided || op.Access == nil {
		return nil
	}
	var area vm.Region
	valueSize := 0
	switch op.Access.Area {
	case ddg.AreaStack:
		area = vm.RegionStack
	case ddg.AreaPacket:
		area = vm.RegionPacket
	case ddg.AreaCtx:
		area = vm.RegionCtx
	case ddg.AreaMap:
		if op.MapID < 0 || op.MapID >= len(pl.Transformed.Maps) {
			return nil
		}
		area, valueSize = vm.RegionMapValue, pl.Transformed.Maps[op.MapID].ValueSize
	default:
		return nil
	}
	return vm.SpecializeMem(op.Ins, area, op.Access.Off, valueSize)
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
// loop over a different table.
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
			m := microOp{Op: op, stage: t, block: op.BlockID, val: len(s.maps),
				fall: op.FallThrough(), taken: op.TakenBlock, other: op.FallBlock}
			if err := s.compileOp(&m); err != nil {
				return fmt.Errorf("hwsim: stage %d (%s): %w", t, op.Ins, err)
			}
			shared = shared || !s.oneBurst && !private(op)
			s.ops = append(s.ops, m)
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
// on the packet: its kind, its operands and static address, which map
// and helper it drives — and which hooks ride along. A plain run gets
// the closures vm specialises; s.generic — faults, probes, protection —
// and a map with a write delay buffer get the closure that resolves
// virtual addresses and carries every hook. The loop that runs them is
// the same.
func (s *Sim) compileOp(m *microOp) (err error) {
	op, fall := m.Op, m.fall
	switch op.Kind {
	case core.OpALU:
		m.alu, err = vm.SpecializeALU(op.Ins, op.Fused...)
	case core.OpLDDW:
		dst, v := op.Ins.Dst, uint64(op.Ins.Imm64)
		if op.MapID >= 0 {
			v = vm.MapPointer(op.MapID)
		}
		m.alu = func(st *vm.State) { st.Regs[dst] = v }
	case core.OpBranch:
		m.pred, err = vm.SpecializeBranch(op.Ins)
		if pr := s.probes; pr != nil && err == nil {
			pred, t, taken, other := m.pred, m.stage, m.taken, m.other
			m.pred, m.run = nil, func(j *job) error {
				on, next := pred(j.st), other
				if on {
					next = taken
				}
				j.enable(next)
				pr.onPredicate(s.cycle, j, t, on, next)
				return nil
			}
		}
	case core.OpExit:
		m.run = func(j *job) error {
			j.done, j.action = true, ebpf.XDPAction(uint32(j.st.Regs[ebpf.R0]))
			return nil
		}
	case core.OpLoad, core.OpStore, core.OpAtomic:
		s.compileMem(m)
	case core.OpMapCall:
		m.run, err = s.compileMapCall(*m)
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
	return err
}

// compileMem compiles a load, store or atomic. Statically addressed
// accesses run vm's closure against the stack, the frame or the value
// slice the packet's lookup kept, bare on the mem lane; around a write
// to map memory sits what the map block does with it — count the
// commit, ask the Flush Evaluation Block — unless the table is a
// Burst's, which replays nothing and flushes nothing.
func (s *Sim) compileMem(m *microOp) {
	op, id, t, fall := *m, m.MapID, m.stage, m.fall
	isMap := m.Access != nil && m.Access.Area == ddg.AreaMap
	access := staticAccess(s.pl, m.Op)
	flushes := m.Kind == core.OpStore || s.pl.Options.DisableAtomics
	switch {
	case s.generic || access == nil || isMap && s.maps[id].warDepth != 0:
		m.run = func(j *job) error { return s.store(j, &op) }
		if m.Kind == core.OpLoad {
			m.run = func(j *job) error { return s.load(j, &op) }
		}
	case !isMap:
		m.mem = access
	case m.Kind == core.OpLoad || s.oneBurst:
		m.mem, m.val = access, id
	default:
		m.run = func(j *job) error {
			l := &j.lookups[id]
			if err := access(j.st, l.val); err != nil {
				return err
			}
			s.commit(j, id, l.key, flushes, t)
			j.enable(fall)
			return nil
		}
	}
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
