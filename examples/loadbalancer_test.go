package examples

import (
	"fmt"
	"log"
	"strings"

	"ehdl/internal/apps"
	"ehdl/internal/core"
	"ehdl/internal/ebpf"
	"ehdl/internal/nic"
	"ehdl/internal/pktgen"
)

// Load balancer offload: the Katran-style scenario that motivates the
// paper's introduction. A virtual IP is spread over a backend pool by a
// per-flow hash computed in the NIC; matched packets are
// IPIP-encapsulated towards their backend at line rate, and the host
// reads per-backend hit counters through the map interface.
func Example_loadBalancer() {
	app := apps.LoadBalancer()
	prog, err := app.Program()
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
	if err := app.Setup(shell.Maps()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("load balancer pipeline: %d stages, %d backends configured\n",
		pl.NumStages(), len(apps.LBBackends))

	gen := pktgen.NewGenerator(app.Traffic)
	rep, err := shell.RunLoad(gen.Next, 40000, shell.LineRateMpps(64)*1e6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("offered %.1f Mpps at line rate; achieved %.1f Mpps, lost %d\n",
		rep.OfferedMpps, rep.AchievedMpps, rep.Lost)
	fmt.Printf("balanced to backends (XDP_TX): %d; passed to host: %d\n",
		rep.Actions.Count(ebpf.XDPTx), rep.Actions.Count(ebpf.XDPPass))

	hits := apps.LBBackendHits(shell.Maps())
	var total uint64
	for _, h := range hits {
		total += h
	}
	fmt.Println("per-backend distribution:")
	for i, h := range hits {
		be := apps.LBBackends[i]
		fmt.Printf("  %d.%d.%d.%d  %7d (%.1f%%) %s\n", be[0], be[1], be[2], be[3],
			h, 100*float64(h)/float64(total), strings.Repeat("#", int(40*h/max(total, 1))))
	}
	// Output:
	// load balancer pipeline: 72 stages, 4 backends configured
	// offered 148.8 Mpps at line rate; achieved 148.7 Mpps, lost 0
	// balanced to backends (XDP_TX): 40000; passed to host: 0
	// per-backend distribution:
	//   172.16.1.1     9838 (24.6%) #########
	//   172.16.1.2    10124 (25.3%) ##########
	//   172.16.1.3    10112 (25.3%) ##########
	//   172.16.1.4     9926 (24.8%) #########
}
