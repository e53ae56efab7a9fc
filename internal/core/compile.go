package core

import (
	"fmt"
	"math/bits"

	"ehdl/internal/cfg"
	"ehdl/internal/ddg"
	"ehdl/internal/ebpf"
)

// Compile turns an eBPF/XDP program into a hardware pipeline.
func Compile(prog *ebpf.Program, opts Options) (*Pipeline, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}

	unrolled, err := cfg.Unroll(prog)
	if err != nil {
		return nil, fmt.Errorf("core: %q: %w", prog.Name, err)
	}
	info, err := analyze(unrolled)
	if err != nil {
		return nil, fmt.Errorf("core: %q: %w", prog.Name, err)
	}

	elided := 0
	if !opts.DisableBoundsElision {
		next, n, err := elideBoundsChecks(info)
		if err != nil {
			return nil, fmt.Errorf("core: %q: %w", prog.Name, err)
		}
		if n > 0 {
			if info, err = analyze(next); err != nil {
				return nil, fmt.Errorf("core: %q: %w", prog.Name, err)
			}
		}
		elided = n
	}

	info, removed, err := deadCodeElim(info)
	if err != nil {
		return nil, fmt.Errorf("core: %q: %w", prog.Name, err)
	}

	wiring := wiringSet(info)
	for _, w := range wiring {
		if w {
			removed++
		}
	}
	fused := map[int]int{}
	if !opts.DisableFusion {
		fused = fusePairs(info, wiring)
	}

	stages, blocks, err := schedule(info, opts, fused, wiring)
	if err != nil {
		return nil, fmt.Errorf("core: %q: %w", prog.Name, err)
	}

	p := &Pipeline{
		Prog:                prog,
		Transformed:         info.Prog,
		info:                info,
		Options:             opts,
		Stages:              stages,
		Blocks:              blocks,
		ElidedBoundsChecks:  elided,
		RemovedInstructions: removed,
		FusedPairs:          len(fused),
	}

	if err := p.buildMapBlocks(); err != nil {
		return nil, fmt.Errorf("core: %q: %w", prog.Name, err)
	}
	p.applyFraming()
	p.applyPruning()
	return p, nil
}

// buildMapBlocks creates one eHDLmap block per map with its hazard
// geometry (Section 4.1).
func (p *Pipeline) buildMapBlocks() error {
	type acc struct {
		reads, writes, atomics []int
	}
	byMap := map[int]*acc{}
	get := func(id int) *acc {
		if byMap[id] == nil {
			byMap[id] = &acc{}
		}
		return byMap[id]
	}

	for s := range p.Stages {
		for i := range p.Stages[s].Ops {
			op := &p.Stages[s].Ops[i]
			if op.MapID < 0 || op.Kind == OpLDDW {
				continue
			}
			a := get(op.MapID)
			switch op.Kind {
			case OpMapCall:
				if op.Helper.WritesMap() {
					a.writes = append(a.writes, s)
				} else {
					a.reads = append(a.reads, s)
				}
			case OpLoad:
				a.reads = append(a.reads, s)
			case OpStore:
				a.writes = append(a.writes, s)
			case OpAtomic:
				if p.Options.DisableAtomics {
					// Lowered to a read-modify-write pair protected by
					// flushing (the Section 5.3 ablation).
					a.reads = append(a.reads, s)
					a.writes = append(a.writes, s)
				} else {
					a.atomics = append(a.atomics, s)
				}
			}
		}
	}

	// Commit stages across all maps, for elastic-buffer placement.
	var commits []int
	for _, a := range byMap {
		commits = append(commits, a.writes...)
		commits = append(commits, a.atomics...)
	}

	for id := 0; id < len(p.Transformed.Maps); id++ {
		a := byMap[id]
		if a == nil {
			continue
		}
		mb := MapBlock{MapID: id, Spec: p.Transformed.Maps[id]}
		mb.ReadStages = a.reads
		mb.WriteStages = a.writes
		mb.AtomicStages = a.atomics
		mb.UsesAtomics = len(a.atomics) > 0

		// WAR: a write stage earlier in the pipeline than a read stage
		// would clobber the value an older packet is yet to read; the
		// write is delayed by the distance to the last such read.
		for _, w := range a.writes {
			for _, r := range a.reads {
				if r > w && r-w > mb.WARDepth {
					mb.WARDepth = r - w
				}
			}
		}

		// RAW: a read stage earlier than a write stage observes stale
		// data when a younger packet follows closely; protected by the
		// Flush Evaluation Block.
		minRead, maxWrite := -1, -1
		for _, r := range a.reads {
			if minRead < 0 || r < minRead {
				minRead = r
			}
		}
		for _, w := range a.writes {
			if w > maxWrite {
				maxWrite = w
			}
		}
		if minRead >= 0 && maxWrite > minRead {
			mb.NeedsFlush = true
			mb.L = maxWrite - minRead
			// Elastic buffer: never re-execute a stage that already
			// committed state (Appendix A.2).
			from := 0
			for _, c := range commits {
				if c < maxWrite && c >= from && c != maxWrite {
					if c < minRead {
						from = c + 1
					} else if c > minRead && !contains(a.writes, c) && !contains(a.atomics, c) {
						return fmt.Errorf("map %q: commit stage %d lies inside the flush window [%d,%d]",
							mb.Spec.Name, c, minRead, maxWrite)
					}
				}
			}
			mb.FlushFromStage = from
			mb.K = maxWrite - from
		}
		p.Maps = append(p.Maps, mb)
	}
	return nil
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// applyFraming computes per-stage frame requirements and inserts the
// leading NOP stages that guarantee every frame a stage touches is
// already inside the pipeline (Section 4.2).
func (p *Pipeline) applyFraming() {
	frame := p.FrameBytes()

	needNops := 0
	for s := range p.Stages {
		st := &p.Stages[s]
		need := 0
		for i := range st.Ops {
			op := &st.Ops[i]
			n := packetBytesNeeded(op)
			if n > need {
				need = n
			}
		}
		if need == 0 {
			st.FrameBypass = 0
			continue
		}
		frameIdx := (need - 1) / frame
		st.FrameBypass = frameIdx
		if frameIdx > s && frameIdx-s > needNops {
			needNops = frameIdx - s
		}
	}
	if needNops == 0 {
		return
	}
	// Prepend NOP stages and shift all stage indices.
	nops := make([]Stage, needNops)
	for i := range nops {
		nops[i] = Stage{Kind: StageNOP}
	}
	p.Stages = append(nops, p.Stages...)
	p.FramingNOPs = needNops
	for i := range p.Blocks {
		p.Blocks[i].FirstStage += needNops
	}
	for i := range p.Maps {
		mb := &p.Maps[i]
		shift := func(s []int) {
			for j := range s {
				s[j] += needNops
			}
		}
		shift(mb.ReadStages)
		shift(mb.WriteStages)
		shift(mb.AtomicStages)
		if mb.NeedsFlush {
			if mb.FlushFromStage > 0 {
				mb.FlushFromStage += needNops
			}
			mb.K = maxInt(mb.WriteStages) - mb.FlushFromStage
		}
	}
}

func maxInt(s []int) int {
	m := 0
	for _, v := range s {
		if v > m {
			m = v
		}
	}
	return m
}

// maxPacketBytes bounds packet size for the framing of variable-offset
// accesses: one Ethernet MTU frame.
const maxPacketBytes = 1514

// packetBytesNeeded returns the highest packet byte (exclusive) op needs
// at a static offset, or the full packet bound for dynamic offsets and
// geometry-changing helpers.
func packetBytesNeeded(op *Op) int {
	if op.Kind == OpHelper && op.Helper.WritesPacket() {
		return maxPacketBytes
	}
	acc := op.Access
	if acc == nil || acc.Area != ddg.AreaPacket {
		return 0
	}
	if !acc.OffKnown || acc.Off < 0 {
		return maxPacketBytes
	}
	return int(acc.Off) + acc.Size
}

// applyPruning computes the registers and stack bytes each stage must
// carry (Section 4.3): registers from their def-use intervals
// (carryRegs), stack bytes written at an earlier stage and read at this
// stage or later.
func (p *Pipeline) applyPruning() {
	n := len(p.Stages)
	if p.Options.DisablePruning {
		for s := range p.Stages {
			p.Stages[s].CarryRegs = (1 << ebpf.NumRegisters) - 1
			p.Stages[s].CarryStackLo = 0
			p.Stages[s].CarryStackHi = ebpf.StackSize
		}
		return
	}

	p.carryRegs()

	// Stack: bytes written at an earlier stage and read at this stage or
	// later.
	reads := make([]stackBits, n)
	writes := make([]stackBits, n)
	for s := range p.Stages {
		for i := range p.Stages[s].Ops {
			op := &p.Stages[s].Ops[i]
			r, w := p.stackEffect(op)
			reads[s] = reads[s].or(r)
			writes[s] = writes[s].or(w)
		}
	}
	suffixReads := make([]stackBits, n+1)
	for s := n - 1; s >= 0; s-- {
		suffixReads[s] = suffixReads[s+1].or(reads[s])
	}
	var prefixWrites stackBits
	for s := 0; s < n; s++ {
		carry := prefixWrites.and(suffixReads[s])
		lo, hi := carry.bounds()
		p.Stages[s].CarryStackLo = lo
		p.Stages[s].CarryStackHi = hi
		prefixWrites = prefixWrites.or(writes[s])
	}
}

// carryRegs sets every stage's CarryRegs in one forward pass over the
// blocks in pipeline order. Each (use, reaching definition) pair of a
// register latches it over the stages (defStage, useStage]: the value is
// dropped before its first definition and after its last use. The
// architectural inputs R1 and R10 are defined before stage 0; a
// definition left unscheduled as wiring kills without latching. Only
// the earliest reaching definition of a use matters, so the pass tracks
// per register the earliest stage among its reaching definitions.
func (p *Pipeline) carryRegs() {
	n := len(p.Stages)
	prog := p.Transformed
	g := p.info.Graph

	// stageOf[i] is the stage of instruction i, -1 when unscheduled.
	stageOf := make([]int, len(prog.Instructions))
	for i := range stageOf {
		stageOf[i] = -1
	}
	for s := range p.Stages {
		for i := range p.Stages[s].Ops {
			op := &p.Stages[s].Ops[i]
			stageOf[op.Index] = s
			for _, f := range op.FusedIdx {
				stageOf[f] = s
			}
		}
	}

	// first[r] is the earliest stage among the latching reaching
	// definitions of r; none (n) when it has none.
	type firstDef [ebpf.NumRegisters]int
	none := n
	var unset firstDef
	for r := range unset {
		unset[r] = none
	}
	blockOut := make([]firstDef, len(g.Blocks))
	for b := range blockOut {
		blockOut[b] = unset
	}

	// delta[s][r] is the number of r's intervals that open at stage s
	// less the number that closed at the stage before.
	delta := make([][ebpf.NumRegisters]int16, n+1)
	for _, bi := range p.Blocks {
		blk := g.Blocks[bi.ID]
		cur := unset
		if bi.ID == 0 {
			cur[ebpf.R1], cur[ebpf.R10] = -1, -1
		}
		for _, pred := range blk.Preds {
			for r := range cur {
				cur[r] = min(cur[r], blockOut[pred][r])
			}
		}
		for i := blk.Start; i < blk.End; i++ {
			at := stageOf[i]
			if at >= 0 {
				for m := effectiveUses(p.info, i); m != 0; m &= m - 1 {
					r := bits.TrailingZeros16(m)
					if def := cur[r]; def < at {
						delta[def+1][r]++
						delta[at+1][r]--
					}
				}
			} else {
				at = none
			}
			for m := prog.Instructions[i].DefMask(); m != 0; m &= m - 1 {
				cur[bits.TrailingZeros16(m)] = at
			}
		}
		blockOut[bi.ID] = cur
	}

	var open [ebpf.NumRegisters]int16
	for s := 0; s < n; s++ {
		var mask uint16
		for r := range open {
			open[r] += delta[s][r]
			if open[r] > 0 {
				mask |= 1 << r
			}
		}
		p.Stages[s].CarryRegs = mask
	}
}

// stackBits is a 512-bit set over stack bytes.
type stackBits [8]uint64

func (a stackBits) or(b stackBits) stackBits {
	for i := range a {
		a[i] |= b[i]
	}
	return a
}

func (a stackBits) and(b stackBits) stackBits {
	for i := range a {
		a[i] &= b[i]
	}
	return a
}

// bounds returns the smallest byte range [lo, hi) holding every set
// byte; lo == hi == 0 when none is set.
func (a stackBits) bounds() (lo, hi int) {
	first, last := -1, -1
	for w, word := range a {
		if word == 0 {
			continue
		}
		if first < 0 {
			first = w*64 + bits.TrailingZeros64(word)
		}
		last = w*64 + bits.Len64(word)
	}
	if first < 0 {
		return 0, 0
	}
	return first, last
}

func setStackRange(s *stackBits, off int64, size int) {
	lo := int(off) + ebpf.StackSize
	hi := lo + size
	if lo < 0 {
		lo = 0
	}
	if hi > ebpf.StackSize {
		hi = ebpf.StackSize
	}
	for b := lo; b < hi; b++ {
		s[b/64] |= 1 << (b % 64)
	}
}

func fullStackBits() stackBits {
	var s stackBits
	for i := range s {
		s[i] = ^uint64(0)
	}
	return s
}

// stackEffect returns the stack bytes an op reads and writes.
func (p *Pipeline) stackEffect(op *Op) (reads, writes stackBits) {
	consider := func(idx int, ins ebpf.Instruction) {
		acc := p.info.Accesses[idx]
		if ins.IsCall() {
			helper := ebpf.HelperID(ins.Imm)
			if !helper.AccessesMap() || p.info.CallMap[idx] < 0 {
				return
			}
			spec := p.Transformed.Maps[p.info.CallMap[idx]]
			if p.info.CallKey[idx].Known {
				setStackRange(&reads, p.info.CallKey[idx].Off, spec.KeySize)
			} else {
				reads = fullStackBits()
			}
			if helper == ebpf.HelperMapUpdateElem {
				if p.info.CallVal[idx].Known {
					setStackRange(&reads, p.info.CallVal[idx].Off, spec.ValueSize)
				} else {
					reads = fullStackBits()
				}
			}
			return
		}
		if acc == nil || acc.Area != ddg.AreaStack {
			return
		}
		if !acc.OffKnown {
			if acc.Read {
				reads = fullStackBits()
			}
			return
		}
		if acc.Read {
			setStackRange(&reads, acc.Off, acc.Size)
		}
		if acc.Write {
			setStackRange(&writes, acc.Off, acc.Size)
		}
	}
	consider(op.Index, op.Ins)
	for k, f := range op.Fused {
		consider(op.FusedIdx[k], f)
	}
	return reads, writes
}
