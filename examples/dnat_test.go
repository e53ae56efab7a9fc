package examples

import (
	"encoding/binary"
	"fmt"
	"log"

	"ehdl/internal/apps"
	"ehdl/internal/baseline/sdnet"
	"ehdl/internal/core"
	"ehdl/internal/ebpf"
	"ehdl/internal/nic"
	"ehdl/internal/pktgen"
)

// Dynamic NAT: the application the SDNet P4 baseline cannot express.
// The first packet of each flow selects a translated source port in the
// data plane and installs the binding into the eHDLmap block — a
// data-plane map update, which is exactly what triggers the RAW-hazard
// machinery (Flush Evaluation Block) when packets of one flow arrive
// back to back. The example shows both: the working NAT and the flush
// statistics, plus the SDNet rejection.
func Example_dnat() {
	app := apps.DNAT()

	// The P4 baseline rejects this program.
	if _, err := sdnet.Compile(app); err != nil {
		fmt.Printf("SDNet P4 baseline: %v\n", err)
	}

	prog, err := app.Program()
	if err != nil {
		log.Fatal(err)
	}
	pl, err := core.Compile(prog, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	for i := range pl.Maps {
		mb := &pl.Maps[i]
		if mb.NeedsFlush {
			fmt.Printf("map %q needs the Flush Evaluation Block: read stage %v -> write stage %v (L=%d, K=%d)\n",
				mb.Spec.Name, mb.ReadStages, mb.WriteStages, mb.L, mb.K)
		}
	}

	shell, err := nic.New(pl, nic.ShellConfig{})
	if err != nil {
		log.Fatal(err)
	}

	// Few flows, packets back to back: every new flow's binding insert
	// races with the next packets of the same flow.
	gen := pktgen.NewGenerator(pktgen.GeneratorConfig{Flows: 16, PacketLen: 64, Proto: ebpf.IPProtoUDP, Seed: 3})
	rep, err := shell.RunLoad(gen.Next, 30000, shell.LineRateMpps(64)*1e6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("offered %.1f Mpps; achieved %.1f Mpps; lost %d\n",
		rep.OfferedMpps, rep.AchievedMpps, rep.Lost)
	fmt.Printf("translated (XDP_TX): %d packets; pipeline flushes: %d\n",
		rep.Actions.Count(ebpf.XDPTx), rep.Flushes)

	// Host view of the bindings.
	nat, _ := shell.Maps().ByName("nat")
	fmt.Printf("NAT table: %d bindings\n", nat.Len())
	shown := 0
	nat.Iterate(func(k, v []byte) bool {
		if shown >= 4 {
			return false
		}
		src := binary.BigEndian.Uint32(k[0:4])
		sport := binary.BigEndian.Uint16(k[8:10])
		natport := binary.LittleEndian.Uint16(v[0:2])
		fmt.Printf("  %s:%d -> :%d\n", ip4(src), sport, natport)
		shown++
		return true
	})
	// Output:
	// SDNet P4 baseline: sdnet: data-plane table updates are not expressible in SDNet P4 (application "dnat")
	// map "nat" needs the Flush Evaluation Block: read stage [11 14] -> write stage [24] (L=13, K=24)
	// offered 148.8 Mpps; achieved 148.7 Mpps; lost 0
	// translated (XDP_TX): 30000 packets; pipeline flushes: 6
	// NAT table: 16 bindings
	//   10.0.0.13:1036 -> :59598
	//   10.0.0.12:1035 -> :61134
	//   10.0.0.7:1030 -> :59598
	//   10.0.0.15:1038 -> :59598
}

func ip4(v uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
