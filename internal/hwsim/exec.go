package hwsim

import (
	"fmt"

	"ehdl/internal/core"
	"ehdl/internal/ddg"
	"ehdl/internal/ebpf"
	"ehdl/internal/maps"
	"ehdl/internal/obs"
	"ehdl/internal/vm"
)

// execStage runs the ops of visited stage t for job j and, with them,
// the burst of private stages that follows: nothing another packet can
// observe happens before the next visited stage, so the packet rides the
// stage register until then with that work already done. An error from
// a burst op names the op's own stage; its cycle is the burst's.
func (s *Sim) execStage(j *job, t int) error {
	// Elastic-buffer snapshot: capture the replay state on entry to a
	// flush re-entry stage.
	if s.elasticStage[t] {
		j.snapshot = j.capture(&j.elastic)
	}

	if j.done {
		return nil
	}

	// PolicyStall: before anything executes, a stage reading a
	// flush-protected map conservatively waits until no packets remain
	// in the hazard window ahead (the FlowBlaze-style bubble insertion).
	if s.cfg.Policy == PolicyStall && s.stallPoint < 0 {
		if hold, drainTo := s.stallCheck(j, t); hold {
			j.execStage = t - 1 // re-execute this stage when released
			s.stallPoint = t + 1
			s.stallDrainTo = drainTo
			return nil
		}
	}

	// Ops of one stage execute in parallel in hardware: an exit op in
	// the stage latches the verdict without suppressing its neighbours,
	// so done-ness applies from the next stage's first op.
	end := s.burstEnd[t]
	ops := s.ops[s.opOff[t]:s.opOff[end+1]]
	for i := range ops {
		op := &ops[i]
		if j.done && op.first {
			break
		}
		if !hasBit(j.enabled, op.BlockID) {
			continue
		}
		if s.cfg.StrictCarryCheck {
			s.checkCarry(&s.pl.Stages[op.stage], op.Op, op.stage)
		}
		if err := s.execOp(j, op); err != nil {
			return fmt.Errorf("hwsim: cycle %d stage %d (%s): %w", s.cycle, op.stage, op.Ins, err)
		}
	}
	j.execStage = end
	return nil
}

// stallCheck reports whether stage t holds a read on a flush-protected
// map while older packets occupy the read-to-write window.
func (s *Sim) stallCheck(j *job, t int) (bool, int) {
	stage := &s.pl.Stages[t]
	for i := range stage.Ops {
		op := &stage.Ops[i]
		if op.MapID < 0 || !hasBit(j.enabled, op.BlockID) {
			continue
		}
		mb := s.mapBlocks[op.MapID]
		if mb == nil || !mb.NeedsFlush {
			continue
		}
		isRead := op.Kind == core.OpMapCall && !op.Helper.WritesMap() || op.Kind == core.OpLoad
		if !isRead {
			continue
		}
		maxW := 0
		for _, w := range mb.WriteStages {
			if w > maxW {
				maxW = w
			}
		}
		if s.stages.prevOccupied(min(maxW+1, len(s.pl.Stages))) > t {
			return true, maxW
		}
	}
	return false, -1
}

// checkCarry verifies pruning soundness: every register and stack byte
// the op reads must have been latched into this stage.
func (s *Sim) checkCarry(stage *core.Stage, op *core.Op, t int) {
	fail := func(format string, args ...any) {
		if s.strictErr == nil {
			s.strictErr = fmt.Errorf("hwsim: stage %d (%s): %s", t, op.Ins, fmt.Sprintf(format, args...))
		}
	}
	var defined uint16 // registers produced earlier within this op's chain
	checkIns := func(idx int) {
		for _, r := range core.EffectiveUses(s.pl.Info, idx) {
			if stage.CarryRegs&(1<<r) == 0 && defined&(1<<r) == 0 {
				fail("reads r%d which is not carried (mask %#x)", r, stage.CarryRegs)
			}
		}
		for _, r := range s.pl.Transformed.Instructions[idx].Defs() {
			defined |= 1 << r
		}
		acc := s.pl.Info.Accesses[idx]
		if acc != nil && acc.Area == ddg.AreaStack && acc.Read && acc.OffKnown {
			lo := int(acc.Off) + ebpf.StackSize
			hi := lo + acc.Size
			if lo < stage.CarryStackLo || hi > stage.CarryStackHi {
				fail("reads stack [%d,%d) outside carried [%d,%d)", lo, hi, stage.CarryStackLo, stage.CarryStackHi)
			}
		}
	}
	checkIns(op.Index)
	for _, f := range op.FusedIdx {
		checkIns(f)
	}
	// Framing invariant (Section 4.2): the farthest frame this stage
	// reaches must already be inside the pipeline.
	if stage.FrameBypass > t {
		fail("needs frame %d which has not entered the pipeline", stage.FrameBypass)
	}
	if op.Kind == core.OpMapCall && op.KeyOffKnown {
		spec := s.pl.Transformed.Maps[op.MapID]
		lo := int(op.KeyStackOff) + ebpf.StackSize
		if lo < stage.CarryStackLo || lo+spec.KeySize > stage.CarryStackHi {
			fail("map key stack bytes not carried")
		}
	}
}

// execOp executes one micro-operation.
func (s *Sim) execOp(j *job, op *microOp) error {
	st, t := j.st, op.stage
	switch op.Kind {
	case core.OpALU, core.OpLDDW:
		op.alu(st)
		return s.fireEnd(j, op)

	case core.OpLoad:
		addr, err := s.addrOf(j, op)
		if err != nil {
			return err
		}
		if op.Access != nil && op.Access.Area == ddg.AreaMap {
			if s.probes != nil {
				s.probes.onMapAccess(s.cycle, j, t, op.MapID, obs.MapOpLoad)
			}
			// The BRAM read port decodes (and corrects) the looked-up
			// entry before the load observes it.
			if err := s.checkMapRead(j, op.MapID); err != nil {
				return err
			}
		}
		v, err := s.exec.Mem.LoadAt(st, addr, op.Ins.MemSize().Bytes())
		if err != nil {
			return s.memFault(j, op, err)
		}
		// A load from map memory through the lookup pointer observes the
		// WAR shadow when an older packet still owns the pre-write value.
		if op.Access != nil && op.Access.Area == ddg.AreaMap {
			if sv, ok := s.shadowValue(op.MapID, j); ok {
				off := int(op.Access.Off)
				size := op.Ins.MemSize().Bytes()
				if off >= 0 && off+size <= len(sv) {
					v = vm.ReadUint(sv[off:], size)
				}
			}
		}
		st.Regs[op.Ins.Dst] = v
		return s.fireEnd(j, op)

	case core.OpStore, core.OpAtomic:
		addr, err := s.addrOf(j, op)
		if err != nil {
			return err
		}
		isMap := op.Access != nil && op.Access.Area == ddg.AreaMap
		if isMap && s.debug != nil {
			s.debug(fmt.Sprintf("cycle %d: seq %d stage %d %s (map store/atomic)", s.cycle, j.seq, t, op.Ins))
		}
		if isMap && s.probes != nil {
			mop := obs.MapOpStore
			if op.Kind == core.OpAtomic {
				mop = obs.MapOpAtomic
			}
			s.probes.onMapAccess(s.cycle, j, t, op.MapID, mop)
		}
		if isMap {
			// Stores and atomics are read-modify-write at word
			// granularity: the ECC word must decode cleanly before the
			// partial overwrite, and the write port re-encodes after.
			if err := s.checkMapRead(j, op.MapID); err != nil {
				return err
			}
			s.preWriteShadow(op.MapID, j)
		}
		if err := s.exec.Mem.StoreAt(st, op.Ins, addr); err != nil {
			return s.memFault(j, op, err)
		}
		if isMap {
			s.reencodeMapWrite(j, op.MapID)
			j.commits++
			if l := &j.lookups[op.MapID]; l.valid {
				s.noteMapWrite(op.MapID, l.key, false)
			}
			isAtomicPrimitive := op.Kind == core.OpAtomic && !s.pl.Options.DisableAtomics
			if !isAtomicPrimitive {
				s.rawHazardCheck(j, op.MapID, t)
			}
		}
		return s.fireEnd(j, op)

	case core.OpBranch:
		if op.pred(st) {
			if op.TakenBlock >= 0 {
				setBit(j.enabled, op.TakenBlock)
			}
			if s.probes != nil {
				s.probes.onPredicate(s.cycle, j, t, true, op.TakenBlock)
			}
		} else {
			if op.FallBlock >= 0 {
				setBit(j.enabled, op.FallBlock)
			}
			if s.probes != nil {
				s.probes.onPredicate(s.cycle, j, t, false, op.FallBlock)
			}
		}
		return nil

	case core.OpExit:
		j.done = true
		j.action = ebpf.XDPAction(uint32(st.Regs[ebpf.R0]))
		return nil

	case core.OpMapCall:
		if err := s.execMapCall(j, op, t); err != nil {
			return err
		}
		return s.fireEnd(j, op)

	case core.OpHelper:
		if op.Helper.CPUOnly() {
			// Stubbed as a constant block (footnote 2 of the paper).
			st.Regs[ebpf.R0] = 0
			for r := ebpf.R1; r <= ebpf.R5; r++ {
				st.Regs[r] = 0
			}
			return s.fireEnd(j, op)
		}
		redirect, err := s.exec.CallHelper(st, op.Helper)
		if err != nil {
			return err
		}
		if redirect != 0 {
			j.redirect = redirect
		}
		return s.fireEnd(j, op)
	}
	return fmt.Errorf("unknown op kind %v", op.Kind)
}

// fireEnd activates the fallthrough successor when a non-branch op ends
// its block.
func (s *Sim) fireEnd(j *job, op *microOp) error {
	if op.fall >= 0 {
		setBit(j.enabled, op.fall)
	}
	return nil
}

// addrOf resolves an op's memory address: statically wired for elided
// bases, register-relative otherwise.
func (s *Sim) addrOf(j *job, op *microOp) (uint64, error) {
	ins := op.Ins
	if !op.BaseElided || op.Access == nil {
		base := ins.Src
		if ins.Class() == ebpf.ClassST || ins.Class() == ebpf.ClassSTX {
			base = ins.Dst
		}
		return j.st.Regs[base] + uint64(int64(ins.Off)), nil
	}
	acc := op.Access
	switch acc.Area {
	case ddg.AreaStack:
		return vm.StackTopAddr + uint64(acc.Off), nil
	case ddg.AreaPacket:
		return vm.PacketBase + uint64(j.st.Pkt.HeadIndex()) + uint64(acc.Off), nil
	case ddg.AreaCtx:
		return vm.CtxBase + uint64(acc.Off), nil
	case ddg.AreaMap:
		base := j.lookups[op.MapID].addr
		if base == 0 {
			return 0, fmt.Errorf("map access without a preceding lookup hit")
		}
		return base + uint64(acc.Off), nil
	}
	return 0, fmt.Errorf("unresolvable access area %v", acc.Area)
}

// memFault maps packet bounds violations to the hardware drop action
// and propagates everything else as a simulation error.
func (s *Sim) memFault(j *job, op *microOp, err error) error {
	if op.Access != nil && op.Access.Area == ddg.AreaPacket {
		j.done = true
		j.action = s.cfg.oobAction()
		s.stats.MalformedDropped++
		if op.stage > j.stage {
			j.aheadStage = op.stage
			j.aheadFaults++
		}
		return nil
	}
	return err
}

// uncountAhead is called when j is recalled or aborted: the
// malformed-drop counts — the one effect of a private op visible outside
// its packet — that a burst recorded at a stage the stage-by-stage
// pipeline has not brought j to (executed is the last one it has) are
// taken back, as that pipeline never made them.
func (s *Sim) uncountAhead(j *job, executed int) {
	if j.aheadStage > executed {
		s.stats.MalformedDropped -= uint64(j.aheadFaults)
	}
}

// execMapCall implements the eHDLmap block interface: key (and value)
// from their static stack slots or argument registers, result into R0.
func (s *Sim) execMapCall(j *job, op *microOp, t int) error {
	st := j.st
	spec := s.pl.Transformed.Maps[op.MapID]
	mb := s.mapBlocks[op.MapID]

	key, err := s.helperArg(s.keyBuf, st, op.KeyOffKnown, op.KeyStackOff, ebpf.R2, spec.KeySize)
	if err != nil {
		return fmt.Errorf("map %q key: %w", spec.Name, err)
	}

	if s.debug != nil {
		s.debug(fmt.Sprintf("cycle %d: seq %d stage %d %s key=%x", s.cycle, j.seq, t, op.Helper.Name(), key))
	}
	if s.probes != nil {
		var mop obs.MapOp
		switch op.Helper {
		case ebpf.HelperMapLookupElem:
			mop = obs.MapOpLookup
		case ebpf.HelperMapUpdateElem:
			mop = obs.MapOpUpdate
		case ebpf.HelperMapDeleteElem:
			mop = obs.MapOpDelete
		}
		s.probes.onMapAccess(s.cycle, j, t, op.MapID, mop)
	}
	switch op.Helper {
	case ebpf.HelperMapLookupElem:
		// Commit our own pending effects first (store-to-load ordering
		// within one packet is program order by construction).
		addr := s.exec.LookupValueAddr(op.MapID, key)
		if sv, ok := s.shadowLookup(op.MapID, key, j); ok {
			// An older packet must observe the pre-write value: redirect
			// the pointer at a stable shadow address.
			if sv == nil {
				addr = 0 // the entry did not exist before the younger write
			} else {
				addr = s.exec.Mem.ValueAddress(op.MapID, string(key)+"\x00shadow", sv)
			}
		}
		l := &j.lookups[op.MapID]
		l.addr, l.key, l.valid = addr, append(l.key[:0], key...), true
		if mb != nil && mb.NeedsFlush {
			// The Flush Evaluation Block stores every unconfirmed read
			// address: a program that looks up several keys (e.g. forward
			// and reverse flow entries) keeps all of them armed until the
			// packet passes the write stage or is flushed.
			j.noteRead(op.MapID, key)
		}
		st.Regs[ebpf.R0] = addr

	case ebpf.HelperMapUpdateElem:
		val, err := s.helperArg(s.valBuf, st, op.ValOffKnown, op.ValStackOff, ebpf.R3, spec.ValueSize)
		if err != nil {
			return fmt.Errorf("map %q value: %w", spec.Name, err)
		}
		flags := maps.UpdateFlag(st.Regs[ebpf.R4])
		s.preWriteShadowKey(j, op.MapID, key)
		st.Regs[ebpf.R0] = s.exec.UpdateResult(op.MapID, key, val, flags)
		j.commits++
		s.noteMapWrite(op.MapID, key, false)
		s.rawHazardCheckKey(j, op.MapID, key, t)

	case ebpf.HelperMapDeleteElem:
		s.preWriteShadowKey(j, op.MapID, key)
		st.Regs[ebpf.R0] = s.exec.DeleteResult(op.MapID, key)
		j.commits++
		s.noteMapWrite(op.MapID, key, true)
		s.rawHazardCheckKey(j, op.MapID, key, t)

	default:
		return fmt.Errorf("unsupported map helper %s", op.Helper.Name())
	}

	// The helper scratches its argument registers like a real call.
	for r := ebpf.R1; r <= ebpf.R5; r++ {
		st.Regs[r] = 0
	}
	return nil
}

// helperArg fetches a helper pointer argument, either from its static
// stack slot or through the argument register, into buf — Sim-owned
// scratch sized for the largest key or value, valid until the next map
// call. The copy keeps the argument stable while the helper mutates
// the memory it came from; no callee retains it.
func (s *Sim) helperArg(buf []byte, st *vm.State, known bool, off int64, reg ebpf.Register, size int) ([]byte, error) {
	var src []byte
	var err error
	if known {
		src, err = st.StackSlice(off, size)
	} else {
		src, err = s.exec.Mem.ViewBytes(st, st.Regs[reg], size)
	}
	if err != nil {
		return nil, err
	}
	return buf[:copy(buf, src)], nil
}

// --- WAR shadows ------------------------------------------------------

// preWriteShadow captures the pre-write value of the entry the packet
// last looked up, when the map block needs a write-delay buffer.
func (s *Sim) preWriteShadow(mapID int, j *job) {
	if l := &j.lookups[mapID]; l.valid {
		s.preWriteShadowKey(j, mapID, l.key)
	}
}

func (s *Sim) preWriteShadowKey(j *job, mapID int, key []byte) {
	mb := s.mapBlocks[mapID]
	if mb == nil || mb.WARDepth == 0 {
		return
	}
	mp, _ := s.env.Maps.ByID(mapID)
	var old []byte
	had := false
	if v, ok := mp.Lookup(key); ok {
		old = append([]byte(nil), v...)
		had = true
	}
	s.shadows = append(s.shadows, warShadow{
		mapID:     mapID,
		key:       string(key),
		oldValue:  old,
		hadEntry:  had,
		writerSeq: j.seq,
		expires:   s.cycle + uint64(mb.WARDepth),
	})
	if s.probes != nil {
		s.probes.onWARShadow(s.cycle, j, mapID, len(s.shadows), mb.WARDepth)
	}
}

// shadowLookup returns the pre-write value visible to an older packet.
// Pipeline position, not injection sequence, defines age (flush victims
// re-enter behind packets with higher sequence numbers): the shadow is
// visible only to a reader still ahead of the in-flight writer. A
// retired writer leaves no legitimate reader behind — every packet that
// was ahead of it retired first — so its shadows go dark immediately.
func (s *Sim) shadowLookup(mapID int, key []byte, j *job) ([]byte, bool) {
	for i := len(s.shadows) - 1; i >= 0; i-- {
		sh := &s.shadows[i]
		if sh.mapID != mapID || sh.key != string(key) {
			continue
		}
		if ws, inFlight := s.stageOfSeq(sh.writerSeq); inFlight && j.stage > ws {
			if !sh.hadEntry {
				return nil, true
			}
			return sh.oldValue, true
		}
	}
	return nil, false
}

// stageOfSeq locates an in-flight packet by sequence number.
func (s *Sim) stageOfSeq(seq uint64) (int, bool) {
	for t := s.stages.oldest(); t >= 0; t = s.stages.prevOccupied(t) {
		if s.stages.at(t).seq == seq {
			return t, true
		}
	}
	return 0, false
}

// shadowValue returns the shadow for the entry the packet looked up.
func (s *Sim) shadowValue(mapID int, j *job) ([]byte, bool) {
	l := &j.lookups[mapID]
	if !l.valid {
		return nil, false
	}
	sv, ok := s.shadowLookup(mapID, l.key, j)
	if !ok || sv == nil {
		return nil, false
	}
	return sv, true
}

// --- RAW flush evaluation ----------------------------------------------

// rawHazardCheck fires the Flush Evaluation Block for a write through
// the lookup pointer: the written entry is the one this packet last
// looked up.
func (s *Sim) rawHazardCheck(j *job, mapID int, t int) {
	if l := &j.lookups[mapID]; l.valid {
		s.rawHazardCheckKey(j, mapID, l.key, t)
	}
}

// rawHazardCheckKey flushes the younger in-flight packets whose
// unconfirmed read matches the written key (Section 4.1.2, Figure 7).
// The Flush Evaluation Block stores the addresses of unconfirmed reads,
// so the flush is address-precise: packets that read other map entries
// keep flowing, which also guarantees that replayed packets never carry
// committed side effects (their stale read steered them onto a path
// that commits only at or after the write stage).
func (s *Sim) rawHazardCheckKey(j *job, mapID int, key []byte, t int) {
	if s.cfg.Policy != PolicyFlush {
		return
	}
	mb := s.mapBlocks[mapID]
	if mb == nil || !mb.NeedsFlush {
		return
	}
	// Pipeline position, not injection sequence, defines age here: after
	// a replay, re-injected packets sit behind packets with higher
	// sequence numbers. Every packet at an earlier stage than the writer
	// performed its (unconfirmed) read before this write committed.
	hazard := false
	for u := s.stages.prevOccupied(t); u >= mb.FlushFromStage; u = s.stages.prevOccupied(u) {
		if s.stages.at(u).hasRead(mapID, key) {
			hazard = true
			break
		}
	}
	if hazard {
		if s.debug != nil {
			s.debug(fmt.Sprintf("cycle %d: seq %d writes map%d key=%x at stage %d -> flush", s.cycle, j.seq, mapID, key, t))
		}
		s.flushVictims(mb.FlushFromStage, t, mapID, key, false)
	}
}
