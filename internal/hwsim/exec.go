package hwsim

import (
	"fmt"
	"math/bits"

	"ehdl/internal/core"
	"ehdl/internal/ddg"
	"ehdl/internal/ebpf"
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
		j.snapshot = s.capture(j, &j.elastic)
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
	// so done-ness applies from the next stage's first op. A stage holds
	// one block's ops (buildTables), so the loop walks block runs: the
	// enable bit and done-ness are tested once per run. Enable bits are
	// only ever set while a packet executes, so nothing can enable a
	// disabled block inside its own run: the run is hopped over. Within
	// a run, only an exit or a bounds fault sets done; the run then ends
	// with the stage. Every code runs inline — a call per op spills the
	// loop's registers — and only opRun calls out.
	end, st := s.burstEnd[t], j.st
	r, ops := &st.Regs, s.ops[:s.opOff[end+1]]
	for i := s.opOff[t]; i < len(ops) && !j.done; {
		if !hasBit(j.enabled, ops[i].block) {
			i = ops[i].skip
			continue
		}
		for stop := min(ops[i].skip, len(ops)); i < stop; i++ {
			op := &ops[i]
			switch op.code {
			case opRun:
				if err := op.run(j); err != nil {
					return s.opError(op, err)
				}
				if j.done {
					stop = s.opOff[op.stage+1]
				}
				continue // the closure enabled what it enables
			case opALU:
				x := op.imm
				if ebpf.Source(op.opc&8) == ebpf.SourceX {
					x = r[op.src]
				}
				r[op.dst], _ = vm.EvalALU(ebpf.Instruction{Op: op.opc, Imm: int32(op.imm)}, r[op.dst], x)
			case opJmp:
				j.enable(branch(op.jumps(r), op))
			case opExit:
				if !j.done { // unless a bounds fault earlier in the stage dropped the packet
					j.done, j.action = true, ebpf.XDPAction(uint32(r[ebpf.R0]))
				}
				stop = s.opOff[op.stage+1]
			case opCommit:
				s.commit(j, op.val, j.lookups[op.val].key, op.imm != 0, op.stage)
			case opMovK:
				r[op.dst] = op.imm
			case opMovX:
				r[op.dst] = r[op.src]
			case opMov32X:
				r[op.dst] = uint64(uint32(r[op.src]))
			case opAddK:
				r[op.dst] += op.imm
			case opAddX:
				r[op.dst] += r[op.src]
			case opSubK:
				r[op.dst] -= op.imm
			case opSubX:
				r[op.dst] -= r[op.src]
			case opMulK:
				r[op.dst] *= op.imm
			case opMulX:
				r[op.dst] *= r[op.src]
			case opAndK:
				r[op.dst] &= op.imm
			case opAndX:
				r[op.dst] &= r[op.src]
			case opOrK:
				r[op.dst] |= op.imm
			case opOrX:
				r[op.dst] |= r[op.src]
			case opXorK:
				r[op.dst] ^= op.imm
			case opXorX:
				r[op.dst] ^= r[op.src]
			case opLshK:
				r[op.dst] <<= op.imm & 63
			case opLshX:
				r[op.dst] <<= r[op.src] & 63
			case opRshK:
				r[op.dst] >>= op.imm & 63
			case opRshX:
				r[op.dst] >>= r[op.src] & 63
			case opArshK:
				r[op.dst] = uint64(int64(r[op.dst]) >> (op.imm & 63))
			case opArshX:
				r[op.dst] = uint64(int64(r[op.dst]) >> (r[op.src] & 63))
			case opNeg:
				r[op.dst] = -r[op.dst]
			case opBE16:
				r[op.dst] = uint64(bits.ReverseBytes16(uint16(r[op.dst])))
			case opBE32:
				r[op.dst] = uint64(bits.ReverseBytes32(uint32(r[op.dst])))
			case opBE64:
				r[op.dst] = bits.ReverseBytes64(r[op.dst])
			case opJA:
				j.enable(op.taken)
			case opJEqK:
				j.enable(branch(r[op.dst] == op.imm, op))
			case opJEqX:
				j.enable(branch(r[op.dst] == r[op.src], op))
			case opJNeK:
				j.enable(branch(r[op.dst] != op.imm, op))
			case opJNeX:
				j.enable(branch(r[op.dst] != r[op.src], op))
			case opJGtK:
				j.enable(branch(r[op.dst] > op.imm, op))
			case opJGtX:
				j.enable(branch(r[op.dst] > r[op.src], op))
			case opJGeK:
				j.enable(branch(r[op.dst] >= op.imm, op))
			case opJGeX:
				j.enable(branch(r[op.dst] >= r[op.src], op))
			case opJLtK:
				j.enable(branch(r[op.dst] < op.imm, op))
			case opJLtX:
				j.enable(branch(r[op.dst] < r[op.src], op))
			case opJLeK:
				j.enable(branch(r[op.dst] <= op.imm, op))
			case opJLeX:
				j.enable(branch(r[op.dst] <= r[op.src], op))
			case opJSetK:
				j.enable(branch(r[op.dst]&op.imm != 0, op))
			case opJSetX:
				j.enable(branch(r[op.dst]&r[op.src] != 0, op))
			case opLdStack:
				r[op.dst] = loadLE(st.Stack[op.off:], op.size)
			case opStStackK:
				storeLE(st.Stack[op.off:], op.size, op.imm)
			case opStStackX:
				storeLE(st.Stack[op.off:], op.size, r[op.src])
			case opLdPkt:
				pkt := st.Pkt.Bytes()
				if op.off+op.size > len(pkt) {
					s.boundsFault(j, op.stage)
					stop = s.opOff[op.stage+1]
					continue
				}
				r[op.dst] = loadLE(pkt[op.off:], op.size)
			case opStPktK:
				pkt := st.Pkt.Bytes()
				if op.off+op.size > len(pkt) {
					s.boundsFault(j, op.stage)
					stop = s.opOff[op.stage+1]
					continue
				}
				storeLE(pkt[op.off:], op.size, op.imm)
			case opStPktX:
				pkt := st.Pkt.Bytes()
				if op.off+op.size > len(pkt) {
					s.boundsFault(j, op.stage)
					stop = s.opOff[op.stage+1]
					continue
				}
				storeLE(pkt[op.off:], op.size, r[op.src])
			case opLdMap, opStMapK, opStMapX, opAtomicMap:
				b := j.lookups[op.val].val
				if b == nil {
					return s.opError(op, errNoLookup)
				}
				switch b = b[op.off:]; op.code {
				case opLdMap:
					r[op.dst] = loadLE(b, op.size)
				case opStMapK:
					storeLE(b, op.size, op.imm)
				case opStMapX:
					storeLE(b, op.size, r[op.src])
				default:
					x, old := r[op.src], loadLE(b, op.size)
					switch ebpf.AtomicOp(op.opc) {
					case ebpf.AtomicAdd:
						x += old
					case ebpf.AtomicOr:
						x |= old
					case ebpf.AtomicAnd:
						x &= old
					default:
						x ^= old
					}
					storeLE(b, op.size, x)
				}
			case opLdData:
				r[op.dst] = vm.PacketBase + uint64(st.Pkt.HeadIndex())
			case opLdEnd:
				r[op.dst] = vm.PacketBase + uint64(st.Pkt.HeadIndex()+st.Pkt.Len())
			}
			j.enable(op.fall)
		}
	}
	j.execStage = end
	return nil
}

// branch picks a jump's successor.
func branch(on bool, op *microOp) int {
	if on {
		return op.taken
	}
	return op.other
}

// opError names the cycle, stage and instruction an op failed at.
func (s *Sim) opError(op *microOp, err error) error {
	return fmt.Errorf("hwsim: cycle %d stage %d (%s): %w", s.cycle, op.stage, op.Ins, err)
}

// stallCheck reports whether stage t holds a read on a flush-protected
// map while older packets occupy the read-to-write window.
func (s *Sim) stallCheck(j *job, t int) (bool, int) {
	stage := &s.pl.Stages[t]
	for i := range stage.Ops {
		op := &stage.Ops[i]
		if op.MapID < 0 || !hasBit(j.enabled, op.BlockID) || !s.maps[op.MapID].needsFlush {
			continue
		}
		isRead := op.Kind == core.OpMapCall && !op.Helper.WritesMap() || op.Kind == core.OpLoad
		if !isRead {
			continue
		}
		maxW := s.maps[op.MapID].lastWrite
		if s.stages.prevOccupied(min(maxW+1, len(s.pl.Stages))) > t {
			return true, maxW
		}
	}
	return false, -1
}

// load is the generic load: the address resolved through the virtual
// address space, and around an access to map memory the probes, the
// protected read port and the WAR shadow.
func (s *Sim) load(j *job, op *microOp) error {
	st, t := j.st, op.stage
	isMap := op.Access != nil && op.Access.Area == ddg.AreaMap
	addr, err := s.addrOf(j, op)
	if err != nil {
		return err
	}
	if isMap {
		if s.probes != nil {
			s.probes.onMapAccess(s.cycle, j, t, op.MapID, obs.MapOpLoad)
		}
		// The BRAM read port decodes (and corrects) the looked-up
		// entry before the load observes it.
		if err := s.checkMapRead(j, op.MapID); err != nil {
			return err
		}
	}
	size := op.Ins.MemSize().Bytes()
	v, err := s.exec.Mem.LoadAt(st, addr, size)
	if err != nil {
		return s.memFault(j, op, err)
	}
	// A load from map memory through the lookup pointer observes the
	// WAR shadow when an older packet still owns the pre-write value.
	if isMap {
		if sv, ok := s.shadowValue(op.MapID, j); ok {
			if off := int(op.Access.Off); off >= 0 && off+size <= len(sv) {
				v = loadLE(sv[off:], size)
			}
		}
	}
	st.Regs[op.Ins.Dst] = v
	j.enable(op.fall)
	return nil
}

// store is the generic store or atomic, load's twin.
func (s *Sim) store(j *job, op *microOp) error {
	t := op.stage
	isMap := op.Access != nil && op.Access.Area == ddg.AreaMap
	addr, err := s.addrOf(j, op)
	if err != nil {
		return err
	}
	if isMap {
		if s.probes != nil {
			mop := obs.MapOpStore
			if op.Kind == core.OpAtomic {
				mop = obs.MapOpAtomic
			}
			s.probes.onMapAccess(s.cycle, j, t, op.MapID, mop)
		}
		// Stores and atomics are read-modify-write at word
		// granularity: the ECC word must decode cleanly before the
		// partial overwrite, and the write port re-encodes after.
		if err := s.checkMapRead(j, op.MapID); err != nil {
			return err
		}
		s.preWriteShadowKey(j, op.MapID, j.lookups[op.MapID].key) // a map pointer only comes from a lookup
	}
	if err := s.exec.Mem.StoreAt(j.st, op.Ins, addr); err != nil {
		return s.memFault(j, op, err)
	}
	if isMap {
		s.reencodeMapWrite(j, op.MapID)
		// An atomic primitive serialises in the map block and needs no
		// flush; lowered to a read-modify-write pair it does.
		flushes := op.Kind == core.OpStore || s.pl.Options.DisableAtomics
		s.commit(j, op.MapID, j.lookups[op.MapID].key, flushes, t)
	}
	j.enable(op.fall)
	return nil
}

// commit is what every committed map mutation does, whichever closure
// made it: count it against the packet (a replay must never repeat it)
// and ask the Flush Evaluation Block.
func (s *Sim) commit(j *job, mapID int, key []byte, flushes bool, t int) {
	j.commits++
	if flushes {
		s.rawHazardCheckKey(j, mapID, key, t)
	}
}

// rebind runs before an address that may point into map memory — a
// register-relative one, a map pointer, a helper's argument — is
// resolved for j. A value address names a slot, and a slot can change
// tenant while j is in flight — a younger packet's delete or eviction
// commits, another key's lookup lands in the slot — so the addresses
// j's lookups returned are pointed back at the buffers they returned
// (vm.MemSpace.Rebind): j's late access lands in its own, possibly
// orphaned, entry, the way a coded access's kept slice does.
func (s *Sim) rebind(j *job) {
	for i := range j.lookups {
		if l := &j.lookups[i]; l.addr != 0 {
			s.exec.Mem.Rebind(l.addr, l.val)
		}
	}
}

// addrOf resolves an op's memory address: statically wired for elided
// bases, register-relative otherwise. One that may point into map
// memory is good for the access that follows: rebind has run.
func (s *Sim) addrOf(j *job, op *microOp) (uint64, error) {
	ins := op.Ins
	if !op.BaseElided || op.Access == nil {
		base := ins.Src
		if ins.Class() == ebpf.ClassST || ins.Class() == ebpf.ClassSTX {
			base = ins.Dst
		}
		s.rebind(j)
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
			return 0, errNoLookup
		}
		s.rebind(j)
		return base + uint64(acc.Off), nil
	}
	return 0, fmt.Errorf("unresolvable access area %v", acc.Area)
}

// memFault maps packet bounds violations to the hardware drop action
// and propagates everything else as a simulation error.
func (s *Sim) memFault(j *job, op *microOp, err error) error {
	if op.Access != nil && op.Access.Area == ddg.AreaPacket {
		s.boundsFault(j, op.stage)
		return nil
	}
	return err
}

// boundsFault is the hardware bounds check's verdict on a packet access
// past the data end at stage t.
func (s *Sim) boundsFault(j *job, t int) {
	j.done = true
	j.action = oobAction
	s.stats.MalformedDropped++
	if t > j.stage {
		j.aheadStage = t
		j.aheadFaults++
	}
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

// helperArg fetches a helper pointer argument. A static stack slot is
// returned as it stands — no map helper writes the stack. What an
// argument register points at may be the map memory the helper is about
// to mutate, so that is copied into buf: Sim-owned scratch sized for the
// largest key or value, valid until the next map call. No callee
// retains either.
func (s *Sim) helperArg(buf []byte, j *job, known bool, off int64, reg ebpf.Register, size int) ([]byte, error) {
	st := j.st
	if known {
		return st.StackSlice(off, size)
	}
	s.rebind(j)
	src, err := s.exec.Mem.ViewBytes(st, st.Regs[reg], size)
	if err != nil {
		return nil, err
	}
	return buf[:copy(buf, src)], nil
}

// --- WAR shadows ------------------------------------------------------

// preWriteShadowKey captures the pre-write value of the entry a packet
// is about to write, when the map block needs a write-delay buffer.
func (s *Sim) preWriteShadowKey(j *job, mapID int, key []byte) {
	depth := s.maps[mapID].warDepth
	if depth == 0 {
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
		expires:   s.cycle + uint64(depth),
	})
	if s.probes != nil {
		s.probes.onWARShadow(s.cycle, j, mapID, len(s.shadows), depth)
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

// rawHazardCheckKey flushes the younger in-flight packets whose
// unconfirmed read matches the written key (Section 4.1.2, Figure 7).
// The Flush Evaluation Block stores the addresses of unconfirmed reads,
// so the flush is address-precise: packets that read other map entries
// keep flowing, which also guarantees that replayed packets never carry
// committed side effects (their stale read steered them onto a path
// that commits only at or after the write stage).
func (s *Sim) rawHazardCheckKey(j *job, mapID int, key []byte, t int) {
	unit := &s.maps[mapID]
	if s.cfg.Policy != PolicyFlush || !unit.needsFlush {
		return
	}
	// The stored addresses are compared, not searched for: when the key's
	// bucket of the index holds nothing but the writer's own read, no
	// packet anywhere has the key armed (see mapUnit.feb).
	own := uint32(0)
	if j.hasRead(mapID, key) {
		own = 1
	}
	if unit.feb[febBucket(key)] == own {
		return
	}
	// Pipeline position, not injection sequence, defines age here: after
	// a replay, re-injected packets sit behind packets with higher
	// sequence numbers. Every packet at an earlier stage than the writer
	// performed its (unconfirmed) read before this write committed.
	for u := s.stages.prevOccupied(t); u >= unit.flushFrom; u = s.stages.prevOccupied(u) {
		if s.stages.at(u).hasRead(mapID, key) {
			s.flushVictims(unit.flushFrom, t, mapID, key, false)
			return
		}
	}
}
