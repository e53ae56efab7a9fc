package core

import (
	"fmt"

	"ehdl/internal/ddg"
	"ehdl/internal/ebpf"
)

// fusePairs finds adjacent instruction pairs that combine into a single
// three-operand hardware operation (Section 3.2): a constant or register
// move immediately followed by an ALU operation on the same destination,
// e.g. "r2 = r10; r2 += -4" becomes the single primitive
// "r2 = r10 + -4" of Figure 3.
//
// The result maps the second instruction's index to the first's; fused
// instructions evaluate combinationally inside one stage.
func fusePairs(info *ddg.Info, wiring []bool) map[int]int {
	fused := map[int]int{}
	for _, blk := range info.Graph.Blocks {
		for i := blk.Start; i+1 < blk.End; i++ {
			if _, taken := fused[i]; taken {
				continue
			}
			if wiring[i] || wiring[i+1] {
				continue
			}
			head := info.Prog.Instructions[i]
			next := info.Prog.Instructions[i+1]
			if !isFusableHead(head) || !isFusableTail(head, next) {
				continue
			}
			fused[i+1] = i
		}
	}
	return fused
}

// isFusableHead accepts 64-bit moves (register or immediate).
func isFusableHead(ins ebpf.Instruction) bool {
	return ins.Class() == ebpf.ClassALU64 && ins.ALUOp() == ebpf.ALUMov
}

// isFusableTail accepts a plain ALU operation whose destination is the
// head's destination, forming dst = src <op> operand.
func isFusableTail(head, tail ebpf.Instruction) bool {
	if tail.Class() != ebpf.ClassALU64 || tail.Dst != head.Dst {
		return false
	}
	switch tail.ALUOp() {
	case ebpf.ALUAdd, ebpf.ALUSub, ebpf.ALUAnd, ebpf.ALUOr, ebpf.ALUXor, ebpf.ALULsh, ebpf.ALURsh:
	default:
		return false
	}
	// A register source must not be the destination being built, unless
	// the head was a register move (pure wiring either way).
	if tail.Source() == ebpf.SourceX && tail.Src == head.Dst {
		return false
	}
	return true
}

// scheduleUnit is one schedulable item: a head instruction plus any
// instructions fused into it.
type scheduleUnit struct {
	head  int
	fused []int
	ends  bool // fires the block's successor enables

	// defs and uses are the registers the members write and read; mem
	// marks a member that touches memory or calls a helper.
	defs, uses uint16
	mem        bool
}

// add makes instruction i a member of the unit's masks.
func (u *scheduleUnit) add(info *ddg.Info, i int) {
	u.defs |= info.Prog.Instructions[i].DefMask()
	u.uses |= info.UseMask(i)
	u.mem = u.mem || info.Accesses[i] != nil || info.Prog.Instructions[i].IsCall()
}

// member returns the unit's k-th instruction: the head, then the fused
// instructions in order.
func (u *scheduleUnit) member(k int) int {
	if k == 0 {
		return u.head
	}
	return u.fused[k-1]
}

// schedule lays the program out as pipeline stages: each reachable block
// is list-scheduled into rows of independent units (Section 3.3), the
// rows of all blocks are concatenated in topological order, and helper
// calls expand into their block's pipeline depth.
func schedule(info *ddg.Info, opts Options, fused map[int]int, wiring []bool) ([]Stage, []BlockInfo, error) {
	order, err := info.Graph.TopologicalBlocks()
	if err != nil {
		return nil, nil, err
	}

	// Group instructions into units per block, skipping pure wiring.
	unitsOf := make(map[int][]scheduleUnit, len(order))
	for _, b := range order {
		blk := info.Graph.Blocks[b]
		units := make([]scheduleUnit, 0, blk.End-blk.Start)
		for i := blk.Start; i < blk.End; i++ {
			if wiring[i] {
				continue
			}
			if head, isFused := fused[i]; isFused {
				// Attach to its head unit.
				for k := range units {
					if units[k].head == head {
						units[k].fused = append(units[k].fused, i)
						units[k].add(info, i)
					}
				}
				continue
			}
			units = append(units, scheduleUnit{head: i})
			units[len(units)-1].add(info, i)
		}
		if len(units) == 0 {
			// A block of pure address plumbing still owns a pipeline
			// position so its enable propagates; keep its last
			// instruction as a zero-logic op.
			units = append(units, scheduleUnit{head: blk.End - 1})
			units[0].add(info, blk.End-1)
		}
		unitsOf[b] = units
	}

	// Two units conflict when some pair of their members does
	// (ddg.Info.Conflicts). The register half of that relation is a
	// question about the units' masks; only units that both touch
	// memory need the pairwise memory test.
	conflicts := func(u, v *scheduleUnit) bool {
		if u.defs&v.uses != 0 || u.uses&v.defs != 0 || u.defs&v.defs != 0 {
			return true
		}
		if !u.mem || !v.mem {
			return false
		}
		for k := 0; k <= len(u.fused); k++ {
			for l := 0; l <= len(v.fused); l++ {
				lo, hi := u.member(k), v.member(l)
				if lo > hi {
					lo, hi = hi, lo
				}
				if info.Conflicts(lo, hi) {
					return true
				}
			}
		}
		return false
	}

	var stages []Stage
	var blocks []BlockInfo

	for _, b := range order {
		units := unitsOf[b]
		// Exactly one unit fires the block's successor enables: the one
		// holding the terminator, or the last unit when the terminator
		// was pure wiring.
		endsIdx := len(units) - 1
		for k := range units {
			if units[k].head == info.Graph.Blocks[b].End-1 {
				endsIdx = k
			}
			for _, f := range units[k].fused {
				if f == info.Graph.Blocks[b].End-1 {
					endsIdx = k
				}
			}
		}
		units[endsIdx].ends = true
		// Greedy list scheduling into rows.
		rowOf := make([]int, len(units))
		nRows := 0
		for i := range units {
			row := 0
			switch {
			case opts.DisableILP:
				row = i
			case info.Prog.Instructions[units[i].head].IsExit():
				// The verdict latch closes the packet: it must come after
				// every other operation of its block, sharing the last
				// row only when nothing there conflicts with it.
				if nRows > 0 {
					row = nRows - 1
					for j := 0; j < i; j++ {
						if rowOf[j] == row && conflicts(&units[j], &units[i]) {
							row = nRows
							break
						}
					}
				}
			default:
				for j := 0; j < i; j++ {
					if rowOf[j] >= row && conflicts(&units[j], &units[i]) {
						row = rowOf[j] + 1
					}
				}
			}
			rowOf[i] = row
			if row+1 > nRows {
				nRows = row + 1
			}
		}

		block := BlockInfo{ID: b, FirstStage: len(stages)}
		// The block's ops share one backing array, laid out row by row.
		ops := make([]Op, 0, len(units))
		for row := 0; row < nRows; row++ {
			start := len(ops)
			helperDepth := 0
			for i := range units {
				if rowOf[i] != row {
					continue
				}
				op, err := buildOp(info, &units[i], b)
				if err != nil {
					return nil, nil, err
				}
				if op.Kind == OpMapCall || op.Kind == OpHelper {
					if d := op.Helper.PipelineDepth(); d > helperDepth {
						helperDepth = d
					}
				}
				ops = append(ops, op)
			}
			stages = append(stages, Stage{Kind: StageNormal, Ops: ops[start:len(ops):len(ops)]})
			// A pipelined helper block occupies additional stages between
			// its inputs and its R0 output (Section 3.4.2).
			for d := 1; d < helperDepth; d++ {
				stages = append(stages, Stage{Kind: StageHelperWait})
			}
		}
		blocks = append(blocks, block)
	}
	return stages, blocks, nil
}

// buildOp lowers one schedule unit to a pipeline op.
func buildOp(info *ddg.Info, u *scheduleUnit, blockID int) (Op, error) {
	prog := info.Prog
	ins := prog.Instructions[u.head]
	op := Op{
		Ins:        ins,
		Index:      u.head,
		BlockID:    blockID,
		MapID:      -1,
		TakenBlock: -1,
		FallBlock:  -1,
	}
	for _, f := range u.fused {
		op.Fused = append(op.Fused, prog.Instructions[f])
		op.FusedIdx = append(op.FusedIdx, f)
	}
	op.Access = info.Accesses[u.head]

	switch cls := ins.Class(); {
	case cls.IsALU():
		op.Kind = OpALU
	case cls == ebpf.ClassLD:
		op.Kind = OpLDDW
		if ins.IsLoadOfMapFD() {
			op.MapID = info.MapIDOfLDDW[u.head]
		}
	case cls == ebpf.ClassLDX:
		op.Kind = OpLoad
	case cls == ebpf.ClassST, cls == ebpf.ClassSTX:
		op.Kind = OpStore
		if ins.IsAtomic() {
			op.Kind = OpAtomic
		}
	case ins.IsExit():
		op.Kind = OpExit
	case ins.IsCall():
		helper := ebpf.HelperID(ins.Imm)
		op.Helper = helper
		if helper.AccessesMap() {
			op.Kind = OpMapCall
			op.MapID = info.CallMap[u.head]
			op.KeyStackOff, op.KeyOffKnown = info.CallKey[u.head].Off, info.CallKey[u.head].Known
			op.ValStackOff, op.ValOffKnown = info.CallVal[u.head].Off, info.CallVal[u.head].Known
		} else {
			op.Kind = OpHelper
		}
	case ins.IsBranch():
		op.Kind = OpBranch
	default:
		return Op{}, fmt.Errorf("core: instruction %d (%s): no hardware template", u.head, ins)
	}

	if op.Access != nil && op.Access.Area == ddg.AreaMap && op.Kind != OpMapCall {
		op.MapID = op.Access.MapID
	}
	if op.Access != nil && op.Access.OffKnown {
		op.BaseElided = true
	}

	// Block-end bookkeeping: the designated unit fires the successor
	// enables derived from the block's real terminator.
	blk := info.Graph.Blocks[blockID]
	if u.ends {
		op.endsBlock = true
		last := prog.Instructions[blk.End-1]
		switch {
		case last.IsExit():
			// no successors
		case last.IsBranch():
			t, _ := prog.BranchTarget(blk.End - 1)
			op.TakenBlock = info.Graph.BlockOf(t)
			if last.IsConditional() && blk.End < len(prog.Instructions) {
				op.FallBlock = info.Graph.BlockOf(blk.End)
			}
		default:
			if blk.End < len(prog.Instructions) {
				op.FallBlock = info.Graph.BlockOf(blk.End)
			}
		}
	}
	return op, nil
}
