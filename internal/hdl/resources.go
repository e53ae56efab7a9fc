// Package hdl is the hardware backend of the compiler: it renders a
// compiled pipeline as VHDL source ready for an FPGA NIC shell
// (Section 3: "takes as input unmodified eBPF bytecode and outputs
// VHDL"), and it estimates the FPGA resources of the generated design.
//
// Both outputs derive from one elaboration of the pipeline (netlist.go):
// the VHDL is a printer over the netlist, the estimate a fold over it.
//
// The resource estimator replaces the Vivado synthesis reports of the
// paper's testbed: each template primitive (Section 3.4) carries a
// calibrated LUT/FF/BRAM cost beside its VHDL template, so relative
// comparisons — across applications, against the hXDP and SDNet
// baselines (Figure 10), and between pruning on/off (Section 5.4) —
// are preserved.
package hdl

import (
	"math/bits"

	"ehdl/internal/core"
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
func (p Percent) Max() float64 { return max(p.LUT, p.FF, p.BRAM) }

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
	n := elaborate(p)
	r := n.stageLogic()
	for i := range n.maps {
		r = r.Add(n.maps[i].cost())
	}
	return r
}

// EstimateDesign returns pipeline plus shell: the Figure 10 quantity.
func EstimateDesign(p *core.Pipeline) Resources {
	return EstimatePipeline(p).Add(CorundumShell())
}

// stageLogic prices the per-stage datapath — everything except the map
// blocks. This is the part a multi-queue deployment stamps out once per
// replica, while maps follow their sharing class (replicate.go).
func (n *netlist) stageLogic() Resources {
	var r Resources
	stackBRAMBits := 0
	for i := range n.stages[:len(n.stages)-1] { // all but the output latch
		st := &n.stages[i]
		// Stage skeleton: enable logic, valid/done/verdict latches and
		// pipeline control.
		r.LUTs += 100
		r.FFs += 16

		// Carried architectural state: registers and live stack bytes.
		stateBits := bits.OnesCount16(st.latched) * 64
		if st.stackBits() >= bramThresholdBytes*8 {
			// Large stack segments fall out of the shifter register into
			// indirectly indexed block RAM (the Section 6 trade-off);
			// the pool is shared across stages.
			stackBRAMBits += st.stackBits()
		} else {
			stateBits += st.stackBits()
		}
		r.FFs += stateBits
		r.LUTs += stateBits / 3 // routing and write-enables

		// Packet frame registers: one frame plus the bypass window.
		frameBits := n.frameBits * st.frames
		r.FFs += frameBits
		r.LUTs += frameBits / 4
	}
	for i := range n.ops {
		o := &n.ops[i]
		prim := &primitives[o.kind]
		r = r.Add(prim.fixed)
		if !(prim.regOnly && o.b.sig == sigLit) {
			r.LUTs += int(prim.lutsPerBit * float64(o.width))
			r.DSPs += prim.dspsPer16Bits * int(o.width) / 16
		}
	}
	r.BRAM36 += bram36(stackBRAMBits)
	return r
}

// bram36 is the number of 36 Kb block RAMs that hold bits.
func bram36(bits int) int { return (bits + 36*1024 - 1) / (36 * 1024) }

// engineCost prices a map block's lookup engine.
var engineCost = [...]Resources{
	engineDirect: {LUTs: 120, FFs: 80},
	engineHash:   {LUTs: 520, FFs: 300},
	engineTrie:   {LUTs: 760, FFs: 420},
}

// cost prices one eHDLmap block: the memory itself plus the lookup
// engine, consistency hardware and host interface (Section 4.1).
func (m *mapNode) cost() Resources {
	r := engineCost[m.engine]
	r.BRAM36 += bram36(m.dataBits)

	// Host interface (userspace map access, Section 4.1).
	r.LUTs += 180
	r.FFs += 150

	// One channel per distinct accessing stage.
	r.LUTs += 90 * m.channels
	r.FFs += 70 * m.channels

	if m.atomics > 0 {
		r.LUTs += 150 // atomic update primitive
	}
	if m.flushEval {
		// Flush Evaluation Block: address CAM over the hazard window.
		r.LUTs += 280 + 24*m.window
		r.FFs += 64 * m.window
	}
	if m.warDepth > 0 {
		// Write-delay registers (Figure 6).
		r.FFs += (m.keyBits + m.valueBits) * m.warDepth
		r.LUTs += 60
	}
	return r
}
