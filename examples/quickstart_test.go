// Package examples walks through the library: each Example is one
// scenario of the paper, run end to end by go test with its output
// checked.
package examples

import (
	"encoding/binary"
	"fmt"
	"log"

	"ehdl/internal/apps"
	"ehdl/internal/core"
	"ehdl/internal/hdl"
	"ehdl/internal/nic"
	"ehdl/internal/pktgen"
)

// The complete eHDL flow on the paper's running example (Listing 1):
// take the eBPF/XDP program, compile it to a hardware pipeline, inspect
// the generated design, run line-rate traffic through the
// cycle-accurate NIC simulation, and read the statistics map from the
// host side — the same workflow as loading the design on an FPGA NIC
// and using standard eBPF tooling.
func Example_quickstart() {
	// 1. The unmodified eBPF/XDP program (Listing 1 of the paper,
	//    already compiled to bytecode form).
	prog, err := apps.Toy().Program()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("input: %q, %d eBPF instructions, %d map(s)\n",
		prog.Name, len(prog.Instructions), len(prog.Maps))

	// 2. Compile to a hardware pipeline.
	pl, err := core.Compile(prog, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	maxILP, avgILP := pl.ILP()
	fmt.Printf("compiled: %d stages (paper's Figure 8 shows 20)\n", pl.NumStages())
	fmt.Printf("  bounds checks elided: %d, instructions removed: %d\n",
		pl.ElidedBoundsChecks, pl.RemovedInstructions)
	fmt.Printf("  ILP max/avg: %d/%.2f\n", maxILP, avgILP)

	// 3. The design is ordinary VHDL, ready for an FPGA NIC shell.
	vhdl := hdl.Generate(pl)
	fmt.Printf("  VHDL: %d bytes; resources: %+v\n", len(vhdl), hdl.EstimateDesign(pl))

	// 4. Put the pipeline in the (simulated) Corundum shell and blast
	//    line-rate 64-byte traffic at it.
	shell, err := nic.New(pl, nic.ShellConfig{})
	if err != nil {
		log.Fatal(err)
	}
	gen := pktgen.NewGenerator(pktgen.GeneratorConfig{Flows: 256, PacketLen: 64, Seed: 1})
	rep, err := shell.RunLoad(gen.Next, 20000, shell.LineRateMpps(64)*1e6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("traffic: offered %.1f Mpps (100 Gbps line rate at 64B)\n", rep.OfferedMpps)
	fmt.Printf("  achieved %.1f Mpps, lost %d, latency avg %.0f ns\n",
		rep.AchievedMpps, rep.Lost, rep.AvgLatencyNs)
	fmt.Printf("  verdicts: %v\n", rep.Actions)

	// 5. Read the stats map from "userspace", like bpftool would.
	stats, _ := shell.Maps().ByName("stats")
	fmt.Println("host view of the stats map:")
	var key [4]byte
	for i, label := range []string{"other", "IPv4", "IPv6", "ARP"} {
		binary.LittleEndian.PutUint32(key[:], uint32(i))
		v, _ := stats.Lookup(key[:])
		fmt.Printf("  %-5s %d packets\n", label, binary.LittleEndian.Uint64(v))
	}
	// Output:
	// input: "toy", 32 eBPF instructions, 1 map(s)
	// compiled: 18 stages (paper's Figure 8 shows 20)
	//   bounds checks elided: 1, instructions removed: 9
	//   ILP max/avg: 2/1.29
	//   VHDL: 29576 bytes; resources: {LUTs:47869 FFs:81570 BRAM36:121 DSPs:0}
	// traffic: offered 148.8 Mpps (100 Gbps line rate at 64B)
	//   achieved 148.7 Mpps, lost 0, latency avg 716 ns
	//   verdicts: map[XDP_TX:20000]
	// host view of the stats map:
	//   other 0 packets
	//   IPv4  20000 packets
	//   IPv6  0 packets
	//   ARP   0 packets
}
