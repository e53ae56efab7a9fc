// Package hxdp models hXDP [Brunella et al., OSDI'20], the FPGA soft
// processor the paper compares against: a single-core, 2-lane VLIW
// machine clocked at 250 MHz that executes eBPF programs one packet at
// a time.
//
// The model is analytic where the paper's reasoning is analytic:
// per-packet cycles are derived from the dynamically executed
// instruction stream (produced by the reference interpreter), packed
// into VLIW bundles with the same dependency rules the eHDL scheduler
// uses, plus fixed costs for helper invocations and packet movement in
// and out of the processor's local memory.
package hxdp

import (
	"fmt"

	"ehdl/internal/ebpf"
	"ehdl/internal/hdl"
	"ehdl/internal/maps"
	"ehdl/internal/pktgen"
	"ehdl/internal/vm"
)

// Model is the processor.
type Model struct {
	// lanes is the VLIW width: 2, the published configuration, unless a
	// test sweeps it.
	lanes int
}

const (
	// clockHz is the processor clock.
	clockHz = 250e6
	// moveBytesPerCycle is the local-memory bandwidth for loading and
	// storing the packet: one 64-bit word per cycle.
	moveBytesPerCycle = 8
)

// New returns the published hXDP configuration.
func New() *Model { return &Model{lanes: 2} }

// helperCycles is the latency of helper function units on the soft
// processor.
func helperCycles(id ebpf.HelperID) int {
	switch id {
	case ebpf.HelperMapLookupElem:
		return 10
	case ebpf.HelperMapUpdateElem:
		return 14
	case ebpf.HelperMapDeleteElem:
		return 12
	case ebpf.HelperXDPAdjustHead, ebpf.HelperXDPAdjustTail:
		return 8
	default:
		return 4
	}
}

// Report summarises a traffic run on the model.
type Report struct {
	Packets          uint64
	TotalCycles      uint64
	CyclesPerPacket  float64
	Mpps             float64
	AvgLatencyNs     float64
	BundlesPerPacket float64
}

// StaticBundles packs the whole program into VLIW bundles, the quantity
// Figure 9c reports as "hXDP instructions". Adjacent instructions of the
// same basic block issue together when they have no register or memory
// dependency, up to the lane width; calls, branches and exits issue
// alone.
func (m *Model) StaticBundles(prog *ebpf.Program) (int, error) {
	if err := prog.Validate(); err != nil {
		return 0, err
	}
	return m.packCount(instructionWindows(prog)), nil
}

// instructionWindows splits the program into maximal branch-free runs.
func instructionWindows(prog *ebpf.Program) [][]ebpf.Instruction {
	var out [][]ebpf.Instruction
	var cur []ebpf.Instruction
	targets := map[int]bool{}
	for i, ins := range prog.Instructions {
		if ins.IsBranch() {
			if t, ok := prog.BranchTarget(i); ok {
				targets[t] = true
			}
		}
	}
	flush := func() {
		if len(cur) > 0 {
			out = append(out, cur)
			cur = nil
		}
	}
	for i, ins := range prog.Instructions {
		if targets[i] {
			flush()
		}
		cur = append(cur, ins)
		if ins.IsBranch() || ins.IsExit() || ins.IsCall() {
			flush()
		}
	}
	flush()
	return out
}

// packCount greedily packs each window into bundles of lane width.
func (m *Model) packCount(windows [][]ebpf.Instruction) int {
	lanes := m.lanes
	bundles := 0
	for _, win := range windows {
		i := 0
		for i < len(win) {
			width := 1
			for width < lanes && i+width < len(win) && independent(win[i:i+width], win[i+width]) {
				width++
			}
			bundles++
			i += width
		}
	}
	return bundles
}

// independent reports whether next can issue alongside the instructions
// already in the bundle.
func independent(bundle []ebpf.Instruction, next ebpf.Instruction) bool {
	if next.IsBranch() || next.IsExit() || next.IsCall() {
		return false
	}
	nextUses := regMask(next.Uses())
	nextDefs := regMask(next.Defs())
	for _, b := range bundle {
		if b.IsBranch() || b.IsExit() || b.IsCall() {
			return false
		}
		bDefs := regMask(b.Defs())
		bUses := regMask(b.Uses())
		if bDefs&nextUses != 0 || bUses&nextDefs != 0 || bDefs&nextDefs != 0 {
			return false
		}
		// Two memory operations share the single local-memory port
		// unless both are loads.
		bMem := b.Class().IsLoad() || b.Class().IsStore()
		nMem := next.Class().IsLoad() || next.Class().IsStore()
		if bMem && nMem && (b.Class().IsStore() || next.Class().IsStore()) {
			return false
		}
	}
	return true
}

func regMask(regs []ebpf.Register) uint16 {
	var m uint16
	for _, r := range regs {
		m |= 1 << r
	}
	return m
}

// run executes traffic on the model: the reference interpreter supplies
// the per-packet instruction trace, which is packed into bundles and
// priced. Packets are processed strictly one at a time — the source of
// the 10-100x gap to the eHDL pipelines.
func (m *Model) run(prog *ebpf.Program, env *vm.Env, packets [][]byte) (Report, error) {
	machine, err := vm.New(prog, env)
	if err != nil {
		return Report{}, err
	}
	machine.CollectTrace = true

	var rep Report
	var totalBundles uint64
	for _, data := range packets {
		res, err := machine.Run(vm.NewPacket(data))
		if err != nil {
			return Report{}, fmt.Errorf("hxdp: %w", err)
		}
		cycles, bundles := m.priceTrace(prog, res.Trace)
		// Packet movement in and out of processor-local memory.
		move := 2 * ((len(data) + moveBytesPerCycle - 1) / moveBytesPerCycle)
		rep.TotalCycles += uint64(cycles + move)
		totalBundles += uint64(bundles)
		rep.Packets++
	}
	if rep.Packets > 0 {
		rep.CyclesPerPacket = float64(rep.TotalCycles) / float64(rep.Packets)
		rep.BundlesPerPacket = float64(totalBundles) / float64(rep.Packets)
	}
	rep.Mpps = clockHz / rep.CyclesPerPacket / 1e6
	rep.AvgLatencyNs = rep.CyclesPerPacket / clockHz * 1e9
	return rep, nil
}

// priceTrace packs a dynamic instruction trace into bundles and adds
// helper latencies.
func (m *Model) priceTrace(prog *ebpf.Program, trace []int) (cycles, bundles int) {
	lanes := m.lanes
	i := 0
	for i < len(trace) {
		ins := prog.Instructions[trace[i]]
		if ins.IsCall() {
			cycles += helperCycles(ebpf.HelperID(ins.Imm))
			bundles++
			i++
			continue
		}
		width := 1
		for width < lanes && i+width < len(trace) &&
			trace[i+width] == trace[i+width-1]+1 && // straight-line fetch
			independent([]ebpf.Instruction{ins}, prog.Instructions[trace[i+width]]) {
			width++
		}
		cycles++
		bundles++
		i += width
	}
	return cycles, bundles
}

// RunApp is a convenience wrapper: fresh maps, host setup, generated
// traffic.
func (m *Model) RunApp(prog *ebpf.Program, setup func(*maps.Set) error, gen *pktgen.Generator, n int) (Report, error) {
	env, err := vm.NewEnv(prog)
	if err != nil {
		return Report{}, err
	}
	env.Now = func() uint64 { return 0 }
	if setup != nil {
		if err := setup(env.Maps); err != nil {
			return Report{}, err
		}
	}
	return m.run(prog, env, gen.Batch(n))
}

// Resources returns the synthesised footprint of the hXDP processor on
// the Alveo U50 (fixed: it is a processor, not a per-program design),
// including the Corundum shell, per Figure 10.
func (m *Model) Resources() hdl.Resources {
	return hdl.Resources{LUTs: 24_000, FFs: 32_000, BRAM36: 102}.Add(hdl.CorundumShell())
}
