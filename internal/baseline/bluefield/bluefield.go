// Package bluefield models the NVIDIA Bluefield-2 DPU baseline of the
// paper: eBPF programs run in the XDP hook of the Arm cores' kernel,
// with the embedded switch steering packets to the CPUs.
//
// The model follows how the paper uses the platform — an
// order-of-magnitude processor baseline whose throughput grows linearly
// with cores (Figure 9a: "comparable to hXDP when using a single Arm
// core ... growing linearly to over 10Mpps when using multiple cores").
// Per-packet cost = fixed driver/steering overhead + instruction
// execution time on an A72, measured from the reference interpreter's
// dynamic counts.
package bluefield

import (
	"ehdl/internal/ebpf"
	"ehdl/internal/maps"
	"ehdl/internal/pktgen"
	"ehdl/internal/vm"
)

// Model is the DPU with a number of Arm cores processing packets.
type Model struct {
	n int // cores requested; cores() clamps
}

// The calibration of the published configuration.
const (
	// clockHz of the Arm A72 cores.
	clockHz = 2.75e9
	// cpi is the average cycles per eBPF instruction in the kernel
	// interpreter-free (JITed) path, including L1 effects.
	cpi = 1.3
	// overheadNs covers the embedded-switch steering, the receive
	// descriptor handling and the XDP driver path.
	overheadNs = 310
	// helperNs is the extra cost of one helper call (map lookups walk
	// kernel hash tables).
	helperNs = 28
	// scaling discounts multi-core scaling.
	scaling = 0.97
)

// New returns the published configuration with n cores (1-8).
func New(n int) *Model { return &Model{n: n} }

func (m *Model) cores() int {
	return min(max(m.n, 1), 8)
}

// Report summarises a traffic run.
type Report struct {
	Packets      uint64
	NsPerPacket  float64
	Mpps         float64
	AvgLatencyNs float64
	Cores        int
}

// run prices the traffic on the DPU model using the reference
// interpreter for dynamic instruction and helper counts.
func (m *Model) run(prog *ebpf.Program, env *vm.Env, packets [][]byte) (Report, error) {
	machine, err := vm.New(prog, env)
	if err != nil {
		return Report{}, err
	}
	var totalNs float64
	var rep Report
	for _, data := range packets {
		res, err := machine.Run(vm.NewPacket(data))
		if err != nil {
			return Report{}, err
		}
		instrNs := float64(res.Steps) * cpi / clockHz * 1e9
		totalNs += overheadNs + instrNs + float64(res.HelperCalls)*helperNs
		rep.Packets++
	}
	if rep.Packets > 0 {
		rep.NsPerPacket = totalNs / float64(rep.Packets)
	}
	// Cores process independent packets in parallel; latency stays
	// per-core, throughput scales.
	scale := 1.0
	for c := 1; c < m.cores(); c++ {
		scale += scaling
	}
	rep.Mpps = 1e3 / rep.NsPerPacket * scale
	rep.AvgLatencyNs = rep.NsPerPacket
	rep.Cores = m.cores()
	return rep, nil
}

// RunApp is the convenience wrapper used by the benchmarks.
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
