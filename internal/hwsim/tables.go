package hwsim

import (
	"fmt"

	"ehdl/internal/core"
	"ehdl/internal/ddg"
	"ehdl/internal/vm"
)

// microOp is one pipeline op as the execute loop runs it: the compiled
// op plus what is decided once per Sim — its stage, the block its end
// enables, and for the register-only kinds the vm closure (the fast
// path's own) that stands in for decoding the instruction per packet.
type microOp struct {
	*core.Op
	stage int
	first bool                    // first op of its stage
	fall  int                     // block enabled when the op ends its block, -1 none
	alu   func(st *vm.State)      // OpALU with its fused tail, OpLDDW
	pred  func(st *vm.State) bool // OpBranch
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

// buildTables flattens the pipeline into microOps and draws the line the
// execute loop walks along. A stage is visited when a packet standing in
// it can affect or observe anything beyond itself — stage 0 (injection),
// an elastic stage (the replay snapshot is taken on entry) and any stage
// with a shared op; the run of unvisited stages behind a visited one is
// its burst. A fault injector, probes and the strict carry check look
// at or strike per-stage state, so under them every stage is visited
// and every burst is empty: the same loop over a different table.
func (s *Sim) buildTables() error {
	n := len(s.pl.Stages)
	all := s.cfg.Faults != nil || s.probes != nil || s.cfg.StrictCarryCheck
	s.opOff = make([]int, n+1)
	s.visit = make([]uint64, (n+63)/64)
	s.burstEnd = make([]int, n)
	for t := range s.pl.Stages {
		stage := &s.pl.Stages[t]
		shared := all || t == 0 || s.elasticStage[t]
		for i := range stage.Ops { // a NOP or helper-wait stage has none
			op := &stage.Ops[i]
			m := microOp{Op: op, stage: t, first: i == 0, fall: op.FallThrough()}
			var err error
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
			}
			if err != nil {
				return fmt.Errorf("hwsim: stage %d (%s): %w", t, op.Ins, err)
			}
			shared = shared || !private(op)
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
	return nil
}
