package examples

import (
	"fmt"
	"log"

	"ehdl/internal/apps"
	"ehdl/internal/core"
	"ehdl/internal/ebpf"
	"ehdl/internal/nic"
	"ehdl/internal/pktgen"
)

// Suricata offload: the IDS-bypass scenario of Section 6 ("accelerating
// Suricata took us about 1h"). The filter runs in the NIC; the host IDS
// sees only unclassified traffic. Mid-run, the "IDS" classifies the
// heaviest flows and installs bypass entries through the host map
// interface — after which the NIC drops and accounts those flows at
// line rate without host involvement.
func Example_suricata() {
	prog, err := apps.Suricata().Program()
	if err != nil {
		log.Fatal(err)
	}
	pl, err := core.Compile(prog, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	shell, err := nic.New(pl, nic.ShellConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("suricata filter: %d stages, %d maps\n", pl.NumStages(), len(pl.Maps))

	gen := pktgen.NewGenerator(pktgen.GeneratorConfig{Flows: 32, PacketLen: 128, Proto: ebpf.IPProtoTCP, Seed: 4})
	line := shell.LineRateMpps(128) * 1e6

	// Phase 1: nothing classified yet — everything goes to the host.
	rep1, err := shell.RunLoad(gen.Next, 10000, line)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase 1 (no bypass): to-host=%d dropped-in-nic=%d\n",
		rep1.Actions.Count(ebpf.XDPPass), rep1.Actions.Count(ebpf.XDPDrop))

	// The IDS classifies half the flows and offloads them.
	for i := 0; i < 16; i++ {
		if err := apps.BypassFlow(shell.Maps(), gen.FlowAt(i)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("host installs 16 bypass entries through the map interface")

	// Phase 2: bypassed flows drop in the NIC with accounting.
	rep2, err := shell.RunLoad(gen.Next, 10000, line)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase 2 (bypass active): to-host=%d dropped-in-nic=%d\n",
		rep2.Actions.Count(ebpf.XDPPass), rep2.Actions.Count(ebpf.XDPDrop))

	fmt.Println("per-flow accounting of the bypassed flows:")
	for i := 0; i < 4; i++ {
		pkts, bytes, ok := apps.BypassCounters(shell.Maps(), gen.FlowAt(i))
		if ok {
			fmt.Printf("  flow %d: %d packets, %d bytes\n", i, pkts, bytes)
		}
	}
	fmt.Printf("host load reduction: %.0f%% of packets never reach the IDS\n",
		100*float64(rep2.Actions.Count(ebpf.XDPDrop))/float64(rep2.Received))
	// Output:
	// suricata filter: 60 stages, 2 maps
	// phase 1 (no bypass): to-host=10000 dropped-in-nic=0
	// host installs 16 bypass entries through the map interface
	// phase 2 (bypass active): to-host=4979 dropped-in-nic=5021
	// per-flow accounting of the bypassed flows:
	//   flow 0: 337 packets, 43136 bytes
	//   flow 1: 333 packets, 42624 bytes
	//   flow 2: 290 packets, 37120 bytes
	//   flow 3: 310 packets, 39680 bytes
	// host load reduction: 50% of packets never reach the IDS
}
