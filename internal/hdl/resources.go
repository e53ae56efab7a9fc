// Package hdl is the hardware backend of the compiler: it renders a
// compiled pipeline as VHDL source ready for an FPGA NIC shell
// (Section 3: "takes as input unmodified eBPF bytecode and outputs
// VHDL"), and it estimates the FPGA resources of the generated design.
//
// The resource estimator replaces the Vivado synthesis reports of the
// paper's testbed: each template primitive (Section 3.4) carries a
// calibrated LUT/FF/BRAM cost, so relative comparisons — across
// applications, against the hXDP and SDNet baselines (Figure 10), and
// between pruning on/off (Section 5.4) — are preserved.
package hdl

import (
	"ehdl/internal/core"
	"ehdl/internal/ebpf"
)

// Resources is an FPGA resource vector.
type Resources struct {
	LUTs   int
	FFs    int
	BRAM36 int
	DSPs   int
}

// Add accumulates another vector.
func (r Resources) Add(o Resources) Resources {
	return Resources{r.LUTs + o.LUTs, r.FFs + o.FFs, r.BRAM36 + o.BRAM36, r.DSPs + o.DSPs}
}

// Scale multiplies a vector by n.
func (r Resources) Scale(n int) Resources {
	return Resources{r.LUTs * n, r.FFs * n, r.BRAM36 * n, r.DSPs * n}
}

// Device describes an FPGA part.
type Device struct {
	Name   string
	LUTs   int
	FFs    int
	BRAM36 int
	DSPs   int
}

// AlveoU50 is the Xilinx Alveo U50 of the paper's testbed.
func AlveoU50() Device {
	return Device{Name: "xcu50-fsvh2104-2-e", LUTs: 872_000, FFs: 1_743_000, BRAM36: 1344, DSPs: 5952}
}

// Percent expresses the vector as fractions of a device (0-100).
type Percent struct {
	LUT, FF, BRAM float64
}

// PercentOf computes utilisation on a device.
func (r Resources) PercentOf(d Device) Percent {
	return Percent{
		LUT:  100 * float64(r.LUTs) / float64(d.LUTs),
		FF:   100 * float64(r.FFs) / float64(d.FFs),
		BRAM: 100 * float64(r.BRAM36) / float64(d.BRAM36),
	}
}

// Max returns the dominant utilisation fraction, the figure the paper
// quotes as "6.5%-13.3% of the FPGA".
func (p Percent) Max() float64 {
	m := p.LUT
	if p.FF > m {
		m = p.FF
	}
	if p.BRAM > m {
		m = p.BRAM
	}
	return m
}

// CorundumShell is the cost of the open-source 100 Gbps NIC shell the
// designs are embedded in (Section 4.5). Numbers follow the published
// Corundum utilisation on UltraScale+ parts.
func CorundumShell() Resources {
	return Resources{LUTs: 42_000, FFs: 70_000, BRAM36: 120}
}

// bramThresholdBytes is the carried-state size above which the shifter
// register of a stage is mapped to block RAM instead of flip-flops
// (Section 6 discusses exactly this trade-off).
const bramThresholdBytes = 192

// EstimatePipeline returns the resources of the generated pipeline
// alone (no shell), the quantity the Section 5.4 pruning ablation
// reports.
func EstimatePipeline(p *core.Pipeline) Resources {
	r := estimateStageLogic(p)
	for i := range p.Maps {
		r = r.Add(mapBlockCost(&p.Maps[i]))
	}
	return r
}

// estimateStageLogic prices the per-stage datapath — everything except
// the map blocks. This is the part a multi-queue deployment stamps out
// once per replica, while maps follow their sharing class (replicate.go).
func estimateStageLogic(p *core.Pipeline) Resources {
	var r Resources

	frame := p.Options.FrameBytes
	if frame <= 0 {
		frame = 64
	}

	stackBRAMBits := 0
	for i := range p.Stages {
		st := &p.Stages[i]
		// Stage skeleton: enable logic, valid/done/verdict latches and
		// pipeline control.
		r.LUTs += 100
		r.FFs += 16

		// Carried architectural state: registers and live stack bytes.
		stateBits := st.CarryRegCount()*64 + st.CarryStackBytes()*8
		if st.CarryStackBytes() >= bramThresholdBytes {
			// Large stack segments fall out of the shifter register into
			// indirectly indexed block RAM (the Section 6 trade-off);
			// the pool is shared across stages.
			stackBRAMBits += st.CarryStackBytes() * 8
			stateBits = st.CarryRegCount() * 64
		}
		r.FFs += stateBits
		r.LUTs += stateBits / 3 // routing and write-enables

		// Packet frame registers: one frame plus the bypass window.
		frameBits := frame * 8 * (1 + st.FrameBypass)
		r.FFs += frameBits
		r.LUTs += frameBits / 4

		for k := range st.Ops {
			r = r.Add(opCost(&st.Ops[k]))
		}
	}
	r.BRAM36 += bram36(stackBRAMBits)
	return r
}

// EstimateDesign returns pipeline plus shell: the Figure 10 quantity.
func EstimateDesign(p *core.Pipeline) Resources {
	return EstimatePipeline(p).Add(CorundumShell())
}

// opCost prices one template primitive.
func opCost(op *core.Op) Resources {
	var r Resources
	price := func(ins ebpf.Instruction) {
		switch {
		case ins.Class().IsALU():
			r = r.Add(aluCost(ins))
		case ins.IsExit():
			r.LUTs += 12 // verdict latch
		case ins.IsBranch():
			r.LUTs += 44 // 64-bit compare + enable fan-out
		case ins.Class() == ebpf.ClassLD:
			// Constants and map handles are wiring.
		case ins.Class().IsLoad() || ins.Class().IsStore():
			if ins.IsAtomic() {
				r.LUTs += 160 // read-modify-write primitive
				return
			}
			if op.BaseElided {
				r.LUTs += 10 // statically wired byte lanes
			} else {
				r.LUTs += 220 // dynamic offset: byte-lane multiplexer
			}
		}
	}
	price(op.Ins)
	for _, f := range op.Fused {
		price(f)
	}

	switch op.Kind {
	case core.OpMapCall:
		// The per-call-site channel interface; the shared block itself
		// is priced in mapBlockCost.
		r.LUTs += 120
		r.FFs += 160
	case core.OpHelper:
		r = r.Add(helperCost(op.Helper))
	}
	return r
}

func aluCost(ins ebpf.Instruction) Resources {
	var r Resources
	is64 := ins.Class() == ebpf.ClassALU64
	w := 32
	if is64 {
		w = 64
	}
	switch ins.ALUOp() {
	case ebpf.ALUMov:
		// wiring
	case ebpf.ALUAdd, ebpf.ALUSub, ebpf.ALUNeg:
		r.LUTs += w
	case ebpf.ALUAnd, ebpf.ALUOr, ebpf.ALUXor:
		r.LUTs += w / 2
	case ebpf.ALUMul:
		r.DSPs += w / 16
		r.LUTs += w
	case ebpf.ALUDiv, ebpf.ALUMod:
		r.LUTs += w * 20 // iterative divider, rare in network code
	case ebpf.ALULsh, ebpf.ALURsh, ebpf.ALUArsh:
		if ins.Source() == ebpf.SourceK {
			// constant shifts are wiring
		} else {
			r.LUTs += w * 4 // barrel shifter
		}
	case ebpf.ALUEnd:
		// byte swaps are wiring
	}
	return r
}

func helperCost(h ebpf.HelperID) Resources {
	switch h {
	case ebpf.HelperXDPAdjustHead, ebpf.HelperXDPAdjustTail:
		return Resources{LUTs: 2100, FFs: 1200} // frame realignment shifter
	case ebpf.HelperKtimeGetNs, ebpf.HelperKtimeGetBootNs, ebpf.HelperKtimeGetCoarseNs, ebpf.HelperJiffies64:
		return Resources{LUTs: 90, FFs: 64} // free-running counter sample
	case ebpf.HelperGetPrandomU32:
		return Resources{LUTs: 120, FFs: 96} // xorshift block
	case ebpf.HelperRedirect, ebpf.HelperRedirectMap:
		return Resources{LUTs: 60, FFs: 32}
	case ebpf.HelperL3CsumReplace, ebpf.HelperL4CsumReplace, ebpf.HelperCsumDiff:
		return Resources{LUTs: 320, FFs: 128}
	default:
		return Resources{LUTs: 50, FFs: 16} // stubbed CPU-only helpers
	}
}

// mapDataBits is the on-chip storage one map's entries occupy: key and
// value per entry, value only for the directly indexed kinds (the index
// is the address).
func mapDataBits(spec ebpf.MapSpec) int {
	entryBits := (spec.KeySize + spec.ValueSize) * 8
	if spec.Kind == ebpf.MapArray || spec.Kind == ebpf.MapDevMap {
		entryBits = spec.ValueSize * 8
	}
	return entryBits * spec.MaxEntries
}

// bram36 is the number of 36 Kb block RAMs that hold bits.
func bram36(bits int) int { return (bits + 36*1024 - 1) / (36 * 1024) }

// mapBlockCost prices one eHDLmap block: the memory itself plus the
// lookup engine, consistency hardware and host interface (Section 4.1).
func mapBlockCost(mb *core.MapBlock) Resources {
	var r Resources
	spec := mb.Spec

	r.BRAM36 += bram36(mapDataBits(spec))

	switch spec.Kind {
	case ebpf.MapHash, ebpf.MapLRUHash:
		r.LUTs += 520 // hash function + probe engine
		r.FFs += 300
	case ebpf.MapLPMTrie:
		r.LUTs += 760 // trie walker
		r.FFs += 420
	default:
		r.LUTs += 120 // direct index
		r.FFs += 80
	}

	// Host interface (userspace map access, Section 4.1).
	r.LUTs += 180
	r.FFs += 150

	// One channel per distinct accessing stage.
	channels := len(mb.ReadStages) + len(mb.WriteStages) + len(mb.AtomicStages)
	r.LUTs += 90 * channels
	r.FFs += 70 * channels

	if len(mb.AtomicStages) > 0 {
		r.LUTs += 150 // atomic update primitive
	}
	if mb.NeedsFlush {
		// Flush Evaluation Block: address CAM over the hazard window.
		r.LUTs += 280 + 24*mb.L
		r.FFs += 64 * mb.L
	}
	if mb.WARDepth > 0 {
		// Write-delay registers (Figure 6).
		width := (spec.KeySize + spec.ValueSize) * 8
		r.FFs += width * mb.WARDepth
		r.LUTs += 60
	}
	return r
}
