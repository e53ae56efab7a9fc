// Package core implements the eHDL compiler: it turns an unmodified
// eBPF/XDP program into a strictly forward-feeding hardware pipeline
// (Sections 3 and 4 of the paper).
//
// The compilation pipeline is:
//
//  1. bounded-loop unrolling (cfg.Unroll) so the CFG is acyclic;
//  2. provenance labeling of every memory access (ddg.Analyze);
//  3. packet bounds-check elision — the hardware checks bounds on every
//     frame access, so explicit data_end comparisons are removed;
//  4. dead-code elimination with pointer-use dropping: accesses at
//     compile-time-known offsets do not consume their base register in
//     hardware, which lets whole address-computation chains disappear;
//  5. instruction fusion (three-operand combining, Section 3.2);
//  6. ILP scheduling of each control block into stage rows (Section 3.3);
//  7. template primitive mapping and helper-block expansion (Section 3.4);
//  8. map-block construction with WAR delay buffers and RAW Flush
//     Evaluation Blocks (Section 4.1);
//  9. packet framing with bypass and NOP insertion (Section 4.2);
//  10. state pruning of carried registers and stack bytes (Section 4.3).
//
// The result is a Pipeline, consumed by the cycle-accurate simulator
// (internal/hwsim) and the VHDL backend (internal/hdl).
package core

import (
	"fmt"

	"ehdl/internal/ddg"
	"ehdl/internal/ebpf"
)

// OpKind classifies a pipeline micro-operation by the template hardware
// primitive that implements it (Section 3.4).
type OpKind int

// Op kinds.
const (
	OpALU     OpKind = iota // register-to-register primitive
	OpLDDW                  // 64-bit constant (wiring only)
	OpLoad                  // memory-to-register connection
	OpStore                 // register-to-memory connection
	OpAtomic                // atomic read-modify-write primitive on a map or local memory
	OpBranch                // predicate definition driving stage-enable signals
	OpMapCall               // eHDLmap block access (lookup/update/delete helpers)
	OpHelper                // dedicated helper-function block
	OpExit                  // verdict latch
)

func (k OpKind) String() string {
	switch k {
	case OpALU:
		return "alu"
	case OpLDDW:
		return "lddw"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpAtomic:
		return "atomic"
	case OpBranch:
		return "branch"
	case OpMapCall:
		return "mapcall"
	case OpHelper:
		return "helper"
	case OpExit:
		return "exit"
	}
	return "op?"
}

// Op is one micro-operation placed in a pipeline stage.
type Op struct {
	Kind OpKind
	// Ins is the primary instruction; Index its position in the
	// transformed program.
	Ins   ebpf.Instruction
	Index int
	// Fused holds instructions combined into this operation by
	// instruction fusion; they evaluate combinationally after Ins within
	// the same stage.
	Fused    []ebpf.Instruction
	FusedIdx []int
	// Access is the labeled memory behaviour (nil for pure ALU ops).
	Access *ddg.Access
	// MapID identifies the eHDLmap block for map operations (-1 none).
	MapID int
	// Helper identifies the helper block for OpHelper/OpMapCall.
	Helper ebpf.HelperID
	// KeyStackOff/ValStackOff locate helper arguments in the stack frame
	// when their pointers resolve to compile-time constants.
	KeyStackOff, ValStackOff int64
	KeyOffKnown, ValOffKnown bool
	// BlockID is the control block whose enable signal gates this op.
	BlockID int
	// endsBlock marks the op after which the block's successor enables
	// fire.
	endsBlock bool
	// TakenBlock/FallBlock are the successor block IDs activated when a
	// branch is taken / not taken (or unconditionally for fallthrough
	// ends). -1 when absent.
	TakenBlock, FallBlock int
	// BaseElided records that the access's base register was dropped
	// because the offset is static (the hardware wires the address).
	BaseElided bool
}

// InstructionCount returns the number of original eBPF instructions the
// op carries (1 + fused).
func (o *Op) InstructionCount() int { return 1 + len(o.Fused) }

// FallThrough returns the successor block a non-branch op enables when
// it ends its block, -1 when none fires (branches enable their own
// successors, an exit has none).
func (o *Op) FallThrough() int {
	if o.endsBlock && o.Kind != OpBranch && o.Kind != OpExit {
		return o.FallBlock
	}
	return -1
}

// StageKind distinguishes functional stages from structural ones.
type StageKind int

// Stage kinds.
const (
	StageNormal     StageKind = iota
	StageNOP                  // framing delay (Section 4.2)
	StageHelperWait           // interior stage of a pipelined helper block
)

func (k StageKind) String() string {
	switch k {
	case StageNormal:
		return "normal"
	case StageNOP:
		return "nop"
	case StageHelperWait:
		return "helper-wait"
	}
	return "stage?"
}

// Stage is one pipeline stage: the ops that execute in it and the state
// it must carry to the next stage.
type Stage struct {
	Kind StageKind
	Ops  []Op

	// CarryRegs is the bitmask of registers latched into this stage
	// after state pruning (all eleven when pruning is disabled).
	CarryRegs uint16
	// CarryStackLo/CarryStackHi bound the live stack byte range carried
	// into this stage, as offsets from the frame base (0..512);
	// Lo == Hi means no stack memory.
	CarryStackLo, CarryStackHi int
	// FrameBypass is how many stages upstream the farthest frame this
	// stage reads sits (Section 4.2 stage bypassing).
	FrameBypass int
}

// instructionCount counts the original instructions in the stage.
func (s *Stage) instructionCount() int {
	n := 0
	for i := range s.Ops {
		n += s.Ops[i].InstructionCount()
	}
	return n
}

// CarryStackBytes is the number of stack bytes the stage carries.
func (s *Stage) CarryStackBytes() int { return s.CarryStackHi - s.CarryStackLo }

// CarryRegCount is the number of registers the stage carries.
func (s *Stage) CarryRegCount() int {
	n := 0
	for m := s.CarryRegs; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// BlockInfo describes one control block's place in the pipeline.
type BlockInfo struct {
	ID         int
	FirstStage int
}

// MapBlock is one eHDLmap hardware block: the single memory interface
// shared by every access to one map (Section 4.1).
type MapBlock struct {
	MapID int
	Spec  ebpf.MapSpec

	// Stage indices of the accesses.
	ReadStages   []int
	WriteStages  []int
	AtomicStages []int

	// UsesAtomics marks global-state style access handled by the atomic
	// primitive instead of flushing.
	UsesAtomics bool
	// NeedsFlush marks per-flow-state RAW hazards: a non-atomic write
	// stage later in the pipeline than a read stage.
	NeedsFlush bool
	// L is the stage distance between the (first) read and the (last)
	// non-atomic write — the hazard window of Appendix A.1.
	L int
	// K is the number of stages a flush discards: from the elastic
	// buffer (after the last earlier side effect) up to the write stage.
	K int
	// FlushFromStage is where flushed packets re-enter (0 = pipeline
	// input; >0 = elastic buffer per Appendix A.2).
	FlushFromStage int
	// WARDepth is the write-delay buffer length that defers writes until
	// in-flight older reads have completed (Section 4.1.1): the distance
	// from a write stage back to the last read stage that must still
	// observe the old value.
	WARDepth int
}

// Channels is the number of access channels the block serves: one per
// distinct reading, writing or atomically updating stage.
func (mb *MapBlock) Channels() int {
	return len(mb.ReadStages) + len(mb.WriteStages) + len(mb.AtomicStages)
}

// Sharing classifies how one map is laid out across pipeline replicas,
// mirroring the hardware choice between one shared BRAM block and N
// banked copies (and the kernel's per-CPU map trick on the host side).
type Sharing int

// Sharing classes.
const (
	// SharingShared keeps one instance visible to every replica. Safe
	// only when the data plane never writes the map: routing tables,
	// VIP/backend config, tunnel endpoints.
	SharingShared Sharing = iota
	// SharingCounter banks the map per replica and merges by summing
	// per-word deltas against the post-setup baseline — the per-CPU
	// counter-array model. Chosen when the data plane mutates the map
	// exclusively through the atomic-add primitive.
	SharingCounter
	// SharingFlow banks the map per replica and merges by unioning
	// entries that changed against the baseline. Because the dispatcher
	// pins each flow to one queue, a per-flow entry changes in at most
	// one bank; cross-bank conflicts are counted and resolved in favour
	// of the lowest queue so the merge stays deterministic.
	SharingFlow
)

func (s Sharing) String() string {
	switch s {
	case SharingShared:
		return "shared"
	case SharingCounter:
		return "counter"
	case SharingFlow:
		return "flow"
	}
	return fmt.Sprintf("sharing(%d)", int(s))
}

// Sharing decides the block's sharing class from its access pattern:
//
//   - no data-plane writes at all → shared (one instance, N read ports);
//   - atomic-only mutation → banked counter (delta-sum merge);
//   - general writes → banked per-flow state (union merge).
//
// A nil block — a map the pipeline never touches (host-only scratch) —
// is shared: only the host port accesses it, and the host is a single
// writer. LRU hash maps are never shared even when read-only, because
// their lookup path mutates the recency list.
func (mb *MapBlock) Sharing() Sharing {
	switch {
	case mb == nil:
		return SharingShared
	case len(mb.WriteStages) > 0:
		return SharingFlow
	case len(mb.AtomicStages) > 0 || mb.UsesAtomics:
		return SharingCounter
	case mb.Spec.Kind == ebpf.MapLRUHash:
		return SharingFlow
	}
	return SharingShared
}

// Pipeline is a compiled hardware design.
type Pipeline struct {
	// Prog is the original input program; Transformed is the program the
	// pipeline actually lays out (unrolled, elided, DCE'd).
	Prog        *ebpf.Program
	Transformed *ebpf.Program
	// info is the compiler's analysis of Transformed. It stays inside
	// the package: a check of the design derives its own.
	info *ddg.Info

	Options Options

	Stages []Stage
	Blocks []BlockInfo
	Maps   []MapBlock

	// ElidedBoundsChecks counts removed data_end comparisons.
	ElidedBoundsChecks int
	// RemovedInstructions counts instructions eliminated by DCE.
	RemovedInstructions int
	// FusedPairs counts instruction fusions performed.
	FusedPairs int
	// FramingNOPs counts stages inserted for packet framing.
	FramingNOPs int
}

// FrameBytes returns the packet framing width the pipeline was compiled
// for, with the default resolved.
func (p *Pipeline) FrameBytes() int {
	if p.Options.FrameBytes <= 0 {
		return 64
	}
	return p.Options.FrameBytes
}

// NumStages returns the pipeline depth.
func (p *Pipeline) NumStages() int { return len(p.Stages) }

// ILP reports the maximum and average instruction-level parallelism over
// stages that execute at least one instruction (Appendix A.3).
func (p *Pipeline) ILP() (max int, avg float64) {
	total, stages := 0, 0
	for i := range p.Stages {
		n := p.Stages[i].instructionCount()
		if n == 0 {
			continue
		}
		stages++
		total += n
		if n > max {
			max = n
		}
	}
	if stages == 0 {
		return 0, 0
	}
	return max, float64(total) / float64(stages)
}

// MapBlockFor returns the map block for a map ID.
func (p *Pipeline) MapBlockFor(id int) *MapBlock {
	for i := range p.Maps {
		if p.Maps[i].MapID == id {
			return &p.Maps[i]
		}
	}
	return nil
}

// Options control the compiler; the zero value enables everything with a
// 64-byte frame, matching the paper's prototype.
type Options struct {
	// FrameBytes is the packet framing width (Section 4.2). 0 means 64.
	FrameBytes int
	// DisableILP schedules one instruction per stage.
	DisableILP bool
	// DisablePruning carries the full architectural state in every stage
	// (the Section 5.4 ablation).
	DisablePruning bool
	// DisableFusion turns off instruction fusion.
	DisableFusion bool
	// DisableBoundsElision keeps explicit packet bounds checks.
	DisableBoundsElision bool
	// DisableAtomics lowers atomic map operations to flush-protected
	// read-modify-writes (the Section 5.3 single-flow ablation).
	DisableAtomics bool
}

func (o Options) validate() error {
	if o.FrameBytes < 0 || (o.FrameBytes > 0 && o.FrameBytes < 16) {
		return fmt.Errorf("core: frame size %d is below the 16-byte minimum", o.FrameBytes)
	}
	return nil
}
