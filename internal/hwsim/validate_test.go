package hwsim

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/asm"
	"ehdl/internal/cfg"
	"ehdl/internal/core"
	"ehdl/internal/ddg"
	"ehdl/internal/ebpf"
)

// validate checks a compiled design against the program it lays out,
// with analyses of its own over pl.Transformed: reaching definitions and
// pointer provenance, operand roles taken from the opcode alone. It
// reads nothing the compiler derived (its ddg analysis, core's use
// sets), only the design: stages, ops, carried state and map blocks. It
// checks that
//   - every op that commits, branches, calls or exits is scheduled, and
//     every reachable block has a place in the pipeline;
//   - an address the design wires statically (BaseElided, a map call's
//     map, key and value slots) is the one the program computes on every
//     path; such a base is the only register an op may read uncarried;
//   - every register an op reads is defined, on every path, at an earlier
//     stage or earlier in the op's own fused chain, and carried by every
//     stage in between;
//   - every stack byte an op reads is carried by every stage between the
//     writes that reach it and the read;
//   - every frame an op reaches has entered the pipeline, and no stage's
//     FrameBypass runs ahead of it;
//   - each map block's read, write and atomic stages are its ops', and
//     two accesses of one map keep program order on every path.
func validate(pl *core.Pipeline) error {
	prog := pl.Transformed
	g, err := cfg.Build(prog)
	if err != nil {
		return err
	}
	order, err := g.TopologicalBlocks()
	if err != nil {
		return err
	}
	v := &validator{pl: pl, g: g, at: make([]place, len(prog.Instructions)), stages: map[[2]int][]int{}}
	for i := range v.at {
		v.at[i].stage = -1
	}
	for s := range pl.Stages {
		for k := range pl.Stages[s].Ops {
			op := &pl.Stages[s].Ops[k]
			for pos, i := range append([]int{op.Index}, op.FusedIdx...) {
				if v.at[i].stage >= 0 {
					v.fail(i, "scheduled twice")
				}
				v.at[i] = place{s, op, pos}
			}
		}
		if fb := pl.Stages[s].FrameBypass; fb > s {
			v.failf("stage %d: needs frame %d, which has not entered the pipeline", s, fb)
		}
	}
	placed := map[int]bool{}
	for _, b := range pl.Blocks {
		placed[b.ID] = true
	}
	blockIn := make([]*vState, len(g.Blocks))
	blockIn[0] = entryVState(len(prog.Maps))
	for _, b := range order {
		st := blockIn[b]
		if st == nil {
			continue // unreachable
		}
		if !placed[b] {
			v.failf("block %d is reachable but has no pipeline position", b)
		}
		blk := g.Blocks[b]
		for i := blk.Start; i < blk.End; i++ {
			v.step(st, i)
		}
		for _, s := range blk.Succs {
			if blockIn[s] == nil {
				blockIn[s] = st.clone()
			} else {
				blockIn[s].join(st)
			}
		}
	}
	v.checkMapBlocks(order)
	return errors.Join(v.errs...)
}

// place is where the design put an instruction: its stage, its op and
// its position in the op's fused chain (0 the head). stage -1: nowhere.
type place struct {
	stage int
	op    *core.Op
	pos   int
}

// vKind is a region a register may point into.
type vKind uint8

const (
	vScalar vKind = iota
	vCtx
	vStack
	vPacket
	vPacketEnd
	vMapPtr
	vMapValue
	vUnknown
)

// vArea is the memory area an access through each region labels.
var vArea = [vUnknown + 1]ddg.MemArea{vCtx: ddg.AreaCtx, vStack: ddg.AreaStack, vPacket: ddg.AreaPacket, vMapValue: ddg.AreaMap}

// vPtr is a register's provenance: a region, the map it belongs to, the
// lookup that returned a map value (-1 when paths disagree), and a
// constant offset into the region when known.
type vPtr struct {
	kind   vKind
	mapID  int
	lookup int
	off    int64
	known  bool
}

func (a vPtr) join(b vPtr) vPtr {
	switch {
	case a == b:
		return a
	case a.kind != b.kind || a.mapID != b.mapID:
		return vPtr{kind: vUnknown}
	}
	if a.lookup != b.lookup {
		a.lookup = -1
	}
	a.known = a.known && b.known && a.off == b.off
	return a
}

// resolved reports whether the hardware can wire an access through p:
// a constant offset into the frame, the packet, the context, or the
// value of the map's latest lookup (the one entry the map block holds
// for the packet).
func (p vPtr) resolved(last []int) bool {
	switch p.kind {
	case vStack, vPacket, vCtx:
		return p.known
	case vMapValue:
		return p.known && p.lookup >= 0 && last[p.mapID] == p.lookup
	}
	return false
}

// stackByte is the span of stages whose writes to one stack byte reach a
// program point; lo > hi when none does.
type stackByte struct{ lo, hi int16 }

type vState struct {
	val   [ebpf.NumRegisters]vPtr
	defs  [ebpf.NumRegisters][]int // reaching definitions, -1 the program's entry
	last  []int                    // per map, the latest lookup; -1 none or paths disagree
	stack [ebpf.StackSize]stackByte
}

func entryVState(nmaps int) *vState {
	st := &vState{last: make([]int, nmaps)}
	for i := range st.last {
		st.last[i] = -1
	}
	for b := range st.stack {
		st.stack[b] = stackByte{1 << 14, -1}
	}
	st.val[ebpf.R1] = vPtr{kind: vCtx, known: true}
	st.val[ebpf.R10] = vPtr{kind: vStack, known: true}
	st.defs[ebpf.R1], st.defs[ebpf.R10] = []int{-1}, []int{-1}
	return st
}

func (s *vState) clone() *vState {
	c := *s
	c.last = slices.Clone(s.last)
	return &c
}

func (s *vState) join(o *vState) {
	for r := range s.val {
		s.val[r] = s.val[r].join(o.val[r])
		for _, d := range o.defs[r] {
			if !slices.Contains(s.defs[r], d) {
				s.defs[r] = append(slices.Clip(s.defs[r]), d)
			}
		}
	}
	for m := range s.last {
		if s.last[m] != o.last[m] {
			s.last[m] = -1
		}
	}
	for b := range s.stack {
		s.stack[b] = stackByte{min(s.stack[b].lo, o.stack[b].lo), max(s.stack[b].hi, o.stack[b].hi)}
	}
}

func (s *vState) define(r ebpf.Register, i int, p vPtr) {
	s.defs[r], s.val[r] = []int{i}, p
}

// mapAccess is one access of a map, for the program-order check.
type mapAccess struct {
	ins, stage, mapID int
	write             bool
	lo, hi            int64 // value bytes; lo > hi: the whole entry
}

type validator struct {
	pl     *core.Pipeline
	g      *cfg.Graph
	at     []place
	access []mapAccess
	stages map[[2]int][]int // per map and kind (read, write, atomic), the stages
	errs   []error
}

func (v *validator) failf(format string, args ...any) {
	v.errs = append(v.errs, fmt.Errorf(format, args...))
}

func (v *validator) fail(i int, format string, args ...any) {
	v.failf("stage %d, instruction %d (%s): %s", v.at[i].stage, i, v.pl.Transformed.Instructions[i], fmt.Sprintf(format, args...))
}

// mtuBytes bounds the packet bytes an access at a run-time offset, or a
// helper that reshapes the packet, may reach: one Ethernet MTU frame.
const mtuBytes = 1514

// step checks instruction i against the state before it, then applies
// it to that state.
func (v *validator) step(st *vState, i int) {
	ins := v.pl.Transformed.Instructions[i]
	p := v.at[i]
	cls := ins.Class()
	if p.stage < 0 {
		if cls.IsStore() || cls.IsJump() {
			v.fail(i, "commits, branches, calls or exits but is not scheduled")
		}
		v.transfer(st, i, -1)
		return
	}
	need := func(r ebpf.Register) { v.need(st, i, r) }
	switch {
	case cls.IsALU() || cls.IsJump() && !ins.IsCall():
		for m := ins.UseMask(); m != 0; m &= m - 1 {
			need(ebpf.Register(bits.TrailingZeros16(m)))
		}
	case cls == ebpf.ClassLDX:
		v.memory(st, i, ins.Src, true, false)
	case cls == ebpf.ClassST:
		v.memory(st, i, ins.Dst, false, true)
	case cls == ebpf.ClassSTX:
		need(ins.Src)
		if ins.IsAtomic() && ins.AtomicOp() == ebpf.AtomicCmpXchg {
			need(ebpf.R0) // the compare value
		}
		v.memory(st, i, ins.Dst, ins.IsAtomic(), true)
	case ins.IsCall():
		v.call(st, i, ebpf.HelperID(ins.Imm))
	}
	v.transfer(st, i, p.stage)
}

// need checks that register r, read by scheduled instruction i, comes
// from a definition the design delivers on every path.
func (v *validator) need(st *vState, i int, r ebpf.Register) {
	p := v.at[i]
	for _, d := range st.defs[r] {
		from := -1
		if d >= 0 {
			q := v.at[d]
			switch {
			case q.stage < 0:
				v.fail(i, "reads r%d from instruction %d, which is not scheduled", r, d)
				continue
			case q.stage > p.stage, q.stage == p.stage && (q.op != p.op || q.pos >= p.pos):
				v.fail(i, "reads r%d before instruction %d (stage %d) defines it", r, d, q.stage)
				continue
			}
			from = q.stage
		}
		for s := from + 1; s <= p.stage; s++ {
			if v.pl.Stages[s].CarryRegs&(1<<r) == 0 {
				v.fail(i, "reads r%d, defined by instruction %d, which stage %d does not carry", r, d, s)
				break
			}
		}
	}
}

// memory checks a load, store or atomic through base: the address the
// design wires or the base it reads, the stack bytes it reads, the frame
// it reaches and the map block it drives.
func (v *validator) memory(st *vState, i int, base ebpf.Register, read, write bool) {
	ins, p := v.pl.Transformed.Instructions[i], v.at[i]
	op, size := p.op, ins.MemSize().Bytes()
	ptr := st.val[base]
	off := ptr.off + int64(ins.Off)
	if op.BaseElided {
		acc := op.Access
		if !ptr.resolved(st.last) || acc == nil || acc.Off != off || acc.Area != vArea[ptr.kind] ||
			acc.Area == ddg.AreaMap && acc.MapID != ptr.mapID {
			v.fail(i, "the design wires %+v, the program computes %+v from r%d", acc, ptr, base)
		}
	} else {
		v.need(st, i, base)
	}
	switch ptr.kind {
	case vStack, vUnknown:
		if read {
			v.stackRead(st, i, ptr, int64(ins.Off), size)
		}
	case vPacket:
		need := int64(mtuBytes)
		if ptr.known && off >= 0 {
			need = off + int64(size)
		}
		v.frame(i, need)
	case vMapValue:
		if op.MapID != ptr.mapID {
			v.fail(i, "accesses map %d as map %d", ptr.mapID, op.MapID)
		}
		a := mapAccess{ins: i, stage: p.stage, mapID: ptr.mapID, write: write, lo: 1, hi: 0}
		if ptr.known {
			a.lo, a.hi = off, off+int64(size)
		}
		v.access = append(v.access, a)
		switch {
		case ins.IsAtomic() && !v.pl.Options.DisableAtomics:
			v.mapStage(ptr.mapID, 2, p.stage)
		case ins.IsAtomic():
			v.mapStage(ptr.mapID, 0, p.stage)
			v.mapStage(ptr.mapID, 1, p.stage)
		case write:
			v.mapStage(ptr.mapID, 1, p.stage)
		default:
			v.mapStage(ptr.mapID, 0, p.stage)
		}
	}
}

// call checks a helper call's arguments: a map helper's map, key and
// value slots as wired, the rest as read.
func (v *validator) call(st *vState, i int, h ebpf.HelperID) {
	op := v.at[i].op
	if h.WritesPacket() {
		v.frame(i, mtuBytes)
	}
	if !h.AccessesMap() {
		for r := ebpf.R1; r <= helperArgs(h); r++ {
			v.need(st, i, r)
		}
		return
	}
	if r1 := st.val[ebpf.R1]; r1.kind != vMapPtr || r1.mapID != op.MapID || op.Kind != core.OpMapCall {
		v.fail(i, "drives map %d through r1 holding %+v", op.MapID, r1)
		return
	}
	spec := v.pl.Transformed.Maps[op.MapID]
	arg := func(r ebpf.Register, wired bool, off int64, size int) {
		ptr := st.val[r]
		if !wired {
			v.need(st, i, r)
		} else if ptr.kind != vStack || !ptr.known || ptr.off != off {
			v.fail(i, "the design wires r%d to stack %d, the program computes %+v", r, off, ptr)
		}
		if ptr.kind == vStack || ptr.kind == vUnknown {
			v.stackRead(st, i, ptr, 0, size)
		}
	}
	kind := 0
	switch h {
	case ebpf.HelperMapUpdateElem:
		arg(ebpf.R3, op.ValOffKnown, op.ValStackOff, spec.ValueSize)
		v.need(st, i, ebpf.R4)
		fallthrough
	case ebpf.HelperMapDeleteElem:
		kind = 1
		fallthrough
	case ebpf.HelperMapLookupElem:
		arg(ebpf.R2, op.KeyOffKnown, op.KeyStackOff, spec.KeySize)
	default:
		v.need(st, i, ebpf.R2)
		v.need(st, i, ebpf.R3)
	}
	v.mapStage(op.MapID, kind, v.at[i].stage)
	v.access = append(v.access, mapAccess{ins: i, stage: v.at[i].stage, mapID: op.MapID, write: kind == 1, lo: 1, hi: 0})
}

// helperArgs is the last argument register a helper block reads: the
// helper's signature; none for a clock, a random draw or a helper
// stubbed as a constant.
func helperArgs(h ebpf.HelperID) ebpf.Register {
	switch h {
	case ebpf.HelperRedirect, ebpf.HelperXDPAdjustHead, ebpf.HelperXDPAdjustTail:
		return ebpf.R2
	case ebpf.HelperFibLookup:
		return ebpf.R4
	case ebpf.HelperL3CsumReplace, ebpf.HelperL4CsumReplace, ebpf.HelperCsumDiff:
		return ebpf.R5
	}
	return ebpf.R0
}

// stackRead checks that the stack bytes instruction i reads through ptr
// plus off — all of them when the offset is not constant — are carried
// from the writes that reach them. A byte read at a constant offset
// that no write reaches must still sit in the reading stage's window.
func (v *validator) stackRead(st *vState, i int, ptr vPtr, off int64, size int) {
	static := ptr.kind == vStack && ptr.known
	lo, hi := 0, ebpf.StackSize
	if static {
		lo = int(ptr.off+off) + ebpf.StackSize
		hi = lo + size
	}
	t := v.at[i].stage
	for b := max(lo, 0); b < min(hi, ebpf.StackSize); b++ {
		w := st.stack[b]
		from := int(w.lo)
		switch {
		case w.hi < 0 && !static:
			continue
		case w.hi < 0:
			from = t - 1
		case int(w.hi) >= t:
			v.fail(i, "reads stack byte %d before stage %d writes it", b, w.hi)
			return
		}
		for s := from + 1; s <= t; s++ {
			if stage := &v.pl.Stages[s]; b < stage.CarryStackLo || b >= stage.CarryStackHi {
				v.fail(i, "reads stack byte %d, which stage %d does not carry [%d,%d)",
					b, s, stage.CarryStackLo, stage.CarryStackHi)
				return
			}
		}
	}
}

// frame checks that the frame holding packet byte need-1 has entered the
// pipeline by instruction i's stage.
func (v *validator) frame(i int, need int64) {
	if f := int(max(need-1, 0)) / v.pl.FrameBytes(); f > v.at[i].stage {
		v.fail(i, "reaches frame %d before it enters the pipeline", f)
	}
}

func (v *validator) mapStage(id, kind, stage int) {
	v.stages[[2]int{id, kind}] = append(v.stages[[2]int{id, kind}], stage)
}

// transfer applies instruction i, scheduled at stage (-1: not), to st.
func (v *validator) transfer(st *vState, i, stage int) {
	ins := v.pl.Transformed.Instructions[i]
	scalar := vPtr{}
	switch cls := ins.Class(); {
	case cls.IsALU():
		st.define(ins.Dst, i, aluPtr(ins, st.val[ins.Dst], st.val[ins.Src]))
	case ins.IsLoadImm64():
		p := scalar
		if id, ok := v.pl.Transformed.MapIndex(ins.MapRef); ins.IsLoadOfMapFD() && ok {
			p = vPtr{kind: vMapPtr, mapID: id}
		}
		st.define(ins.Dst, i, p)
	case cls == ebpf.ClassLDX:
		p, base := scalar, st.val[ins.Src]
		if base.kind == vCtx && base.known {
			switch base.off + int64(ins.Off) {
			case ebpf.XDPMDData, ebpf.XDPMDDataMeta:
				p = vPtr{kind: vPacket, known: true}
			case ebpf.XDPMDDataEnd:
				p = vPtr{kind: vPacketEnd}
			}
		}
		st.define(ins.Dst, i, p)
	case cls.IsStore():
		if ptr := st.val[ins.Dst]; ptr.kind == vStack && ptr.known {
			lo := int(ptr.off) + int(ins.Off) + ebpf.StackSize
			for b := max(lo, 0); b < min(lo+ins.MemSize().Bytes(), ebpf.StackSize); b++ {
				st.stack[b] = stackByte{int16(stage), int16(stage)}
			}
		} else if ptr.kind == vStack || ptr.kind == vUnknown {
			for b := range st.stack { // may write any byte
				st.stack[b] = stackByte{min(st.stack[b].lo, int16(stage)), max(st.stack[b].hi, int16(stage))}
			}
		}
		if ins.IsAtomic() {
			switch op := ins.AtomicOp(); {
			case op == ebpf.AtomicCmpXchg:
				st.define(ebpf.R0, i, scalar)
			case op&ebpf.AtomicFetch != 0:
				st.define(ins.Src, i, scalar)
			}
		}
	case ins.IsCall():
		r0 := scalar
		if h := ebpf.HelperID(ins.Imm); h == ebpf.HelperMapLookupElem && st.val[ebpf.R1].kind == vMapPtr {
			id := st.val[ebpf.R1].mapID
			r0 = vPtr{kind: vMapValue, mapID: id, lookup: i, known: true}
			st.last[id] = i
		}
		for r := ebpf.R0; r <= ebpf.R5; r++ {
			st.define(r, i, scalar)
		}
		st.val[ebpf.R0] = r0
	}
}

// aluPtr is the provenance of an ALU result: constant offsets move a
// pointer, run-time ones keep its region, pointer differences are
// scalars, anything else loses track.
func aluPtr(ins ebpf.Instruction, dst, src vPtr) vPtr {
	ptr := func(p vPtr) bool { return p.kind != vScalar }
	op := ins.ALUOp()
	x := ins.Source() == ebpf.SourceX && op != ebpf.ALUNeg && op != ebpf.ALUEnd
	if !x {
		src = vPtr{}
	}
	if op == ebpf.ALUMov {
		dst = vPtr{}
	}
	switch {
	case op == ebpf.ALUMov && (ins.Class() == ebpf.ClassALU64 || !ptr(src)):
		return src
	case !ptr(dst) && !ptr(src):
		return vPtr{}
	case ins.Class() == ebpf.ClassALU:
	case (op == ebpf.ALUAdd || op == ebpf.ALUSub) && !x:
		if op == ebpf.ALUSub {
			dst.off -= int64(ins.Imm)
		} else {
			dst.off += int64(ins.Imm)
		}
		if dst.kind == vStack || dst.kind == vPacket || dst.kind == vMapValue || dst.kind == vCtx {
			return dst
		}
	case op == ebpf.ALUSub && ptr(dst) && ptr(src):
		return vPtr{}
	case op == ebpf.ALUAdd && ptr(dst) != ptr(src), op == ebpf.ALUSub && !ptr(src),
		op == ebpf.ALUAnd && !ptr(src), op == ebpf.ALUOr && !ptr(src):
		if !ptr(dst) {
			dst = src
		}
		dst.known = false
		return dst
	}
	return vPtr{kind: vUnknown}
}

// checkMapBlocks holds each map block's stage lists to its ops', and
// every two accesses of one map, the second reachable from the first, to
// program order: when either writes bytes the other touches, the second
// sits at a later stage.
func (v *validator) checkMapBlocks(order []int) {
	for id := range v.pl.Transformed.Maps {
		var want [3][]int
		if mb := v.pl.MapBlockFor(id); mb != nil {
			want = [3][]int{mb.ReadStages, mb.WriteStages, mb.AtomicStages}
		}
		for k := range want {
			if got := v.stages[[2]int{id, k}]; !slices.Equal(sorted(got), sorted(want[k])) {
				v.failf("map %d: block stages %v (read, write, atomic %d), its ops' %v", id, want[k], k, got)
			}
		}
	}
	reach := v.blockReach(order)
	for _, a := range v.access {
		for _, b := range v.access {
			ba, bb := v.g.BlockOf(a.ins), v.g.BlockOf(b.ins)
			if a.mapID != b.mapID || a.ins == b.ins || (ba == bb && a.ins > b.ins) || !reach[ba][bb] {
				continue
			}
			overlap := a.lo > a.hi || b.lo > b.hi || a.lo < b.hi && b.lo < a.hi
			if (a.write || b.write) && overlap && b.stage <= a.stage {
				v.fail(b.ins, "map %d access at stage %d runs before or beside instruction %d (stage %d) it follows",
					a.mapID, b.stage, a.ins, a.stage)
			}
		}
	}
}

func sorted(s []int) []int {
	s = slices.Clone(s)
	slices.Sort(s)
	return s
}

// blockReach[a][b] reports whether block b is a or follows it on a
// path; order is the blocks' topological order.
func (v *validator) blockReach(order []int) [][]bool {
	n := len(v.g.Blocks)
	reach := make([][]bool, n)
	for k := len(order) - 1; k >= 0; k-- {
		b := order[k]
		reach[b] = make([]bool, n)
		reach[b][b] = true
		for _, s := range v.g.Blocks[b].Succs {
			for c, ok := range reach[s] {
				reach[b][c] = reach[b][c] || ok
			}
		}
	}
	return reach
}

// validateOptions are the option sets a program is validated under:
// those core/testdata/pipelines.golden pins, and bounds checks kept in
// hardware.
var validateOptions = map[string]core.Options{
	"default":              {},
	"DisablePruning":       {DisablePruning: true},
	"DisableILP":           {DisableILP: true},
	"DisableFusion":        {DisableFusion: true},
	"DisableAtomics":       {DisableAtomics: true},
	"FrameBytes32":         {FrameBytes: 32},
	"FrameBytes128":        {FrameBytes: 128},
	"DisableBoundsElision": {DisableBoundsElision: true},
}

// validateAll compiles prog under every option set and validates each
// design.
func validateAll(prog *ebpf.Program) error {
	var errs []error
	for name, opts := range validateOptions {
		pl, err := core.Compile(prog, opts)
		if err == nil {
			err = validate(pl)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("%s/%s: %w", prog.Name, name, err))
		}
	}
	return errors.Join(errs...)
}

// ValidateAll is validateAll for the external tests, which reach
// programs this package's tests cannot import.
var ValidateAll = validateAll

// TestValidateApps validates every bundled app.
func TestValidateApps(t *testing.T) {
	for _, app := range append(apps.All(), apps.Toy(), apps.LeakyBucket(), apps.LoadBalancer()) {
		prog, err := app.Program()
		if err != nil {
			t.Fatal(err)
		}
		if err := validateAll(prog); err != nil {
			t.Error(err)
		}
	}
}

// validateSources are programs no app reaches: a register stored
// through itself and added to itself through an atomic — the base is
// wired, the value is not — and R0 as both the base of a cmpxchg and
// its compare value, which a compiler that drops R0 with the base
// leaves unscheduled.
var validateSources = map[string]string{
	"static_zoo": staticZooSource,
	"stx-self": `
r2 = r10
r2 += -8
*(u64 *)(r2 + 0) = r2
r3 = *(u64 *)(r10 - 8)
r0 = 2
if r3 != 0 goto out
r0 = 1
out:
exit
`,
	"xadd-self": `
*(u64 *)(r10 - 8) = 0
r2 = r10
r2 += -8
lock *(u64 *)(r2 + 0) += r2
r3 = *(u64 *)(r10 - 8)
r0 = 2
if r3 != 0 goto out
r0 = 1
out:
exit
`,
	"cmpxchg-r0-base": `
*(u64 *)(r10 - 8) = 0
r0 = r10
r0 += -8
r2 = 9
lock cmpxchg *(u64 *)(r0 + 0) r2
r3 = *(u64 *)(r10 - 8)
r0 = 2
if r3 != 9 goto out
r0 = 1
out:
exit
`,
}

// TestValidatePrograms validates the hand-written programs and the
// generated ones.
func TestValidatePrograms(t *testing.T) {
	for name, src := range validateSources {
		prog, err := asm.Assemble(name, src)
		if err != nil {
			t.Fatal(err)
		}
		if err := validateAll(prog); err != nil {
			t.Error(err)
		}
	}
	for seed := int64(0); seed < 60; seed++ {
		prog, _, err := generateProgram(seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := validateAll(prog); err != nil {
			t.Error(err)
		}
	}
}

// TestValidateRejectsMutations breaks compiled designs one fact at a
// time and demands the validator reject every mutant: in every app's
// design a register one stage does not carry (state pruning carries
// none it does not need) or a frame bypassed beyond its stage; in the
// toy design also a stage's stack window narrowed at either end and two
// dependent rows swapped.
func TestValidateRejectsMutations(t *testing.T) {
	defs := func(st *core.Stage) (m uint16) {
		for i := range st.Ops {
			m |= st.Ops[i].Ins.DefMask()
			for _, f := range st.Ops[i].Fused {
				m |= f.DefMask()
			}
		}
		return m
	}
	uses := func(st *core.Stage) (m uint16) {
		for i := range st.Ops {
			m |= st.Ops[i].Ins.UseMask()
		}
		return m
	}
	for _, app := range append(apps.All(), apps.Toy(), apps.LeakyBucket(), apps.LoadBalancer()) {
		prog, err := app.Program()
		if err != nil {
			t.Fatal(err)
		}
		pl, err := core.Compile(prog, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		mutants := 0
		reject := func(what string, mutate func(stages []core.Stage)) {
			mut := *pl
			mut.Stages = slices.Clone(pl.Stages)
			mutate(mut.Stages)
			mutants++
			if validate(&mut) == nil {
				t.Errorf("%s: accepted with %s", app.Name, what)
			}
		}
		toy := app.Name == apps.Toy().Name
		for s := range pl.Stages {
			for m := pl.Stages[s].CarryRegs; m != 0; m &= m - 1 {
				r := bits.TrailingZeros16(m)
				reject(fmt.Sprintf("r%d dropped from stage %d", r, s), func(st []core.Stage) { st[s].CarryRegs &^= 1 << r })
			}
			reject(fmt.Sprintf("stage %d bypassing frame %d", s, s+1), func(st []core.Stage) { st[s].FrameBypass = s + 1 })
			if st := &pl.Stages[s]; toy && st.CarryStackLo < st.CarryStackHi {
				reject(fmt.Sprintf("stage %d's stack window raised", s), func(st []core.Stage) { st[s].CarryStackLo++ })
				reject(fmt.Sprintf("stage %d's stack window lowered", s), func(st []core.Stage) { st[s].CarryStackHi-- })
			}
			if toy && s+1 < len(pl.Stages) && defs(&pl.Stages[s])&uses(&pl.Stages[s+1]) != 0 {
				reject(fmt.Sprintf("rows %d and %d swapped", s, s+1), func(st []core.Stage) { st[s], st[s+1] = st[s+1], st[s] })
			}
		}
		t.Logf("%s: %d mutants of a %d-stage design rejected", app.Name, mutants, len(pl.Stages))
	}
}
