package examples

import (
	"encoding/binary"
	"fmt"
	"log"

	"ehdl/internal/apps"
	"ehdl/internal/core"
	"ehdl/internal/ebpf"
	"ehdl/internal/nic"
	"ehdl/internal/pktgen"
)

// Firewall offload: the simple UDP firewall of the paper's evaluation
// running entirely in the (simulated) NIC. Forward traffic establishes
// connection state in the eHDLmap block; return traffic matches the
// reverse key; unsolicited packets to privileged ports are dropped at
// line rate. The host reads the connection table afterwards, exactly as
// userspace eBPF tooling reads NIC-resident maps.
func Example_firewall() {
	prog, err := apps.Firewall().Program()
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

	fmt.Printf("firewall pipeline: %d stages\n", pl.NumStages())
	for i := range pl.Maps {
		mb := &pl.Maps[i]
		fmt.Printf("  map %q: reads@%v writes@%v flush=%v\n",
			mb.Spec.Name, mb.ReadStages, mb.WriteStages, mb.NeedsFlush)
	}

	// Traffic: a mix of forward flows, their return traffic, and
	// unsolicited probes to privileged ports.
	gen := pktgen.NewGenerator(pktgen.GeneratorConfig{Flows: 64, PacketLen: 64, Proto: ebpf.IPProtoUDP, Seed: 2})
	i := 0
	next := func() []byte {
		defer func() { i++ }()
		switch i % 4 {
		case 0, 1: // forward direction
			return gen.Next()
		case 2: // return direction of an established flow
			f := gen.FlowAt(i % gen.FlowCount()).Reverse()
			return pktgen.Build(pktgen.PacketSpec{Flow: f, TotalLen: 64})
		default: // unsolicited scan of a privileged port
			f := pktgen.Flow{SrcIP: 0xdead0000 + uint32(i), DstIP: 0x0a000001,
				SrcPort: 40000, DstPort: 22, Proto: ebpf.IPProtoUDP}
			return pktgen.Build(pktgen.PacketSpec{Flow: f, TotalLen: 64})
		}
	}

	rep, err := shell.RunLoad(next, 40000, shell.LineRateMpps(64)*1e6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("offered %.1f Mpps at line rate; achieved %.1f Mpps, lost %d\n",
		rep.OfferedMpps, rep.AchievedMpps, rep.Lost)
	fmt.Printf("verdicts: forwarded=%d dropped=%d passed-to-kernel=%d\n",
		rep.Actions.Count(ebpf.XDPTx), rep.Actions.Count(ebpf.XDPDrop), rep.Actions.Count(ebpf.XDPPass))
	fmt.Printf("pipeline flushes from connection-table inserts: %d\n", rep.Flushes)

	// Host-side view.
	conn, _ := shell.Maps().ByName("conn")
	fmt.Printf("connection table: %d established flows\n", conn.Len())
	shown := 0
	conn.Iterate(func(k, v []byte) bool {
		if shown >= 3 {
			return false
		}
		src := binary.BigEndian.Uint32(k[0:4])
		dst := binary.BigEndian.Uint32(k[4:8])
		fmt.Printf("  %s -> %s  %d packets\n", ip4(src), ip4(dst), binary.LittleEndian.Uint64(v))
		shown++
		return true
	})

	stats, _ := shell.Maps().ByName("fwstats")
	var key [4]byte
	total, _ := stats.Lookup(key[:])
	fmt.Printf("total UDP packets inspected: %d\n", binary.LittleEndian.Uint64(total))
	// Output:
	// firewall pipeline: 44 stages
	//   map "conn": reads@[17 25] writes@[36] flush=true
	//   map "fwstats": reads@[10] writes@[] flush=false
	// offered 148.8 Mpps at line rate; achieved 148.7 Mpps, lost 0
	// verdicts: forwarded=30000 dropped=10000 passed-to-kernel=0
	// pipeline flushes from connection-table inserts: 9
	// connection table: 64 established flows
	//   10.0.0.4 -> 192.168.0.1  337 packets
	//   10.0.0.50 -> 192.168.0.1  270 packets
	//   10.0.0.9 -> 192.168.0.1  293 packets
	// total UDP packets inspected: 40000
}
