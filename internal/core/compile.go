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
	a, err := analyze(unrolled)
	if err != nil {
		return nil, fmt.Errorf("core: %q: %w", prog.Name, err)
	}

	elided := 0
	if !opts.DisableBoundsElision {
		next, n, err := elideBoundsChecks(a)
		if err != nil {
			return nil, fmt.Errorf("core: %q: %w", prog.Name, err)
		}
		if n > 0 {
			if a, err = analyze(next); err != nil {
				return nil, fmt.Errorf("core: %q: %w", prog.Name, err)
			}
		}
		elided = n
	}

	final, removed, err := deadCodeElim(a)
	if err != nil {
		return nil, fmt.Errorf("core: %q: %w", prog.Name, err)
	}
	if a, err = analyze(final); err != nil {
		return nil, fmt.Errorf("core: %q: %w", prog.Name, err)
	}

	wiring := wiringSet(a)
	fused := map[int]int{}
	if !opts.DisableFusion {
		fused = fusePairs(a, wiring)
	}

	stages, blocks, err := schedule(a, opts, fused, wiring)
	if err != nil {
		return nil, fmt.Errorf("core: %q: %w", prog.Name, err)
	}

	p := &Pipeline{
		Prog:                prog,
		Transformed:         a.prog,
		Info:                a.info,
		Options:             opts,
		Stages:              stages,
		Blocks:              blocks,
		ElidedBoundsChecks:  elided,
		RemovedInstructions: removed + len(wiring),
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
// carry (Section 4.3), using reaching definitions so values are dropped
// both after their last use and before their first definition.
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

	stageOf := make(map[int]int) // instruction index -> stage
	for s := range p.Stages {
		for i := range p.Stages[s].Ops {
			op := &p.Stages[s].Ops[i]
			stageOf[op.Index] = s
			for _, f := range op.FusedIdx {
				stageOf[f] = s
			}
		}
	}

	rd := p.reachingDefs()

	// One register-use mask per scheduled instruction, derived once: the
	// rule below asks it for every (stage, register, instruction).
	uses := make([]uint16, len(p.Transformed.Instructions))
	for i := range stageOf {
		for _, u := range effectiveUses(p.Info, i) {
			uses[i] |= 1 << u
		}
	}

	// carried[r] per stage via the reaching-definition rule.
	for s := 0; s < n; s++ {
		var mask uint16
		for r := ebpf.R0; r <= ebpf.R10; r++ {
			if p.carriedReg(rd, stageOf, uses, r, s) {
				mask |= 1 << r
			}
		}
		p.Stages[s].CarryRegs = mask
	}

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

// defSite is one register definition in the transformed program.
type defSite struct {
	index int // instruction index; -1 for the entry pseudo-definition
	reg   ebpf.Register
}

// reachingInfo holds reaching-definition sets per instruction.
type reachingInfo struct {
	sites []defSite
	in    [][]uint64 // per instruction, bitset over sites
}

func (p *Pipeline) reachingDefs() *reachingInfo {
	prog := p.Transformed
	g := p.Info.Graph
	n := len(prog.Instructions)

	var sites []defSite
	siteIdx := map[[2]int]int{}
	addSite := func(index int, reg ebpf.Register) int {
		key := [2]int{index, int(reg)}
		if i, ok := siteIdx[key]; ok {
			return i
		}
		sites = append(sites, defSite{index: index, reg: reg})
		siteIdx[key] = len(sites) - 1
		return len(sites) - 1
	}
	// Entry definitions for the architectural inputs.
	addSite(-1, ebpf.R1)
	addSite(-1, ebpf.R10)
	for i := 0; i < n; i++ {
		for _, r := range prog.Instructions[i].Defs() {
			addSite(i, r)
		}
	}
	words := (len(sites) + 63) / 64

	set := func(b []uint64, i int) { b[i/64] |= 1 << (i % 64) }
	clear := func(b []uint64, i int) { b[i/64] &^= 1 << (i % 64) }
	has := func(b []uint64, i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

	// Per-register kill masks.
	killOf := make([][]uint64, ebpf.NumRegisters)
	for r := range killOf {
		killOf[r] = make([]uint64, words)
	}
	for i, s := range sites {
		set(killOf[s.reg], i)
	}

	in := make([][]uint64, n)
	for i := range in {
		in[i] = make([]uint64, words)
	}
	blockOut := make([][]uint64, len(g.Blocks))
	for b := range blockOut {
		blockOut[b] = make([]uint64, words)
	}
	entry := make([]uint64, words)
	set(entry, siteIdx[[2]int{-1, int(ebpf.R1)}])
	set(entry, siteIdx[[2]int{-1, int(ebpf.R10)}])

	changed := true
	for changed {
		changed = false
		for b := range g.Blocks {
			blk := g.Blocks[b]
			cur := make([]uint64, words)
			if b == 0 {
				copy(cur, entry)
			}
			for _, pred := range blk.Preds {
				for w := range cur {
					cur[w] |= blockOut[pred][w]
				}
			}
			for i := blk.Start; i < blk.End; i++ {
				if !bitsEqual(in[i], cur) {
					copy(in[i], cur)
					changed = true
				}
				for m := prog.Instructions[i].DefMask(); m != 0; m &= m - 1 {
					r := bits.TrailingZeros16(m)
					for w := range cur {
						cur[w] &^= killOf[r][w]
					}
					set(cur, siteIdx[[2]int{i, r}])
					_ = clear
					_ = has
				}
			}
			if !bitsEqual(blockOut[b], cur) {
				copy(blockOut[b], cur)
				changed = true
			}
		}
	}
	return &reachingInfo{sites: sites, in: in}
}

func bitsEqual(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// carriedReg reports whether register r must be latched into stage s:
// some instruction at stage >= s uses r, and one of its reaching
// definitions lies at a stage < s (or is an architectural input).
func (p *Pipeline) carriedReg(rd *reachingInfo, stageOf map[int]int, uses []uint16, r ebpf.Register, s int) bool {
	for i := range uses {
		// A set bit implies i is scheduled: only those were masked.
		if uses[i]&(1<<r) == 0 || stageOf[i] < s {
			continue
		}
		for siteID, site := range rd.sites {
			if site.reg != r {
				continue
			}
			if rd.in[i][siteID/64]&(1<<(siteID%64)) == 0 {
				continue
			}
			defStage := -1
			if site.index >= 0 {
				ds, ok := stageOf[site.index]
				if !ok {
					continue
				}
				defStage = ds
			}
			if defStage < s {
				return true
			}
		}
	}
	return false
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

func (a stackBits) bounds() (lo, hi int) {
	lo, hi = 0, 0
	first := true
	for b := 0; b < ebpf.StackSize; b++ {
		if a[b/64]&(1<<(b%64)) == 0 {
			continue
		}
		if first {
			lo = b
			first = false
		}
		hi = b + 1
	}
	return lo, hi
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
		acc := p.Info.Accesses[idx]
		if ins.IsCall() {
			helper := ebpf.HelperID(ins.Imm)
			if !helper.AccessesMap() || p.Info.CallMap[idx] < 0 {
				return
			}
			spec := p.Transformed.Maps[p.Info.CallMap[idx]]
			if p.Info.CallKey[idx].Known {
				setStackRange(&reads, p.Info.CallKey[idx].Off, spec.KeySize)
			} else {
				reads = fullStackBits()
			}
			if helper == ebpf.HelperMapUpdateElem {
				if p.Info.CallVal[idx].Known {
					setStackRange(&reads, p.Info.CallVal[idx].Off, spec.ValueSize)
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
