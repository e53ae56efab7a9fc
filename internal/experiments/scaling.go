package experiments

import (
	"fmt"

	"ehdl/internal/apps"
	"ehdl/internal/core"
	"ehdl/internal/hdl"
	"ehdl/internal/hwsim"
	"ehdl/internal/nic"
	"ehdl/internal/pktgen"
)

// scalingQueues is the sweep of the multi-queue experiment.
var scalingQueues = []int{1, 2, 4, 8}

// scaling sweeps the RSS multi-queue shell: each point offers 85% of
// the replica fleet's aggregate capacity (a single 250 MHz pipeline
// forwards at most one packet per cycle, 250 Mpps) and reports whether
// the fleet absorbs it, alongside the FPGA cost of stamping out that
// many firewall replicas.
func scaling(cfg Config) (Table, error) {
	t := Table{ID: "scaling", Title: "Multi-queue RSS scale-out (toy pipeline, 85% aggregate load)",
		Columns: []string{"Queues", "Offered Mpps", "Achieved Mpps", "Speedup", "Lost", "Active", "fw LUT%"}}
	app := apps.Toy()
	fw, err := compileApp(apps.Firewall(), core.Options{})
	if err != nil {
		return t, err
	}
	dev := hdl.AlveoU50()
	n := cfg.packets()
	var base float64
	for _, q := range scalingQueues {
		_, sh, err := serve(app, nic.ShellConfig{Queues: q, Sim: hwsim.Config{InputQueuePackets: 64}})
		if err != nil {
			return t, err
		}
		gen := pktgen.NewGenerator(app.Traffic)
		offered := 0.85 * 250e6 * float64(q)
		rep, err := sh.RunLoad(gen.Next, n, offered)
		if err != nil {
			return t, err
		}
		if base == 0 {
			base = rep.AchievedMpps
		}
		active := 0
		for _, qr := range rep.PerQueue {
			if qr.Steered > 0 {
				active++
			}
		}
		if q == 1 {
			active = 1
		}
		lut := hdl.EstimateDesignReplicated(fw, q).PercentOf(dev).LUT
		t.Rows = append(t.Rows, []string{
			istr(q), f1(offered / 1e6), f1(rep.AchievedMpps),
			fmt.Sprintf("%.2fx", rep.AchievedMpps/base), u64s(rep.Lost),
			istr(active), f1(lut),
		})
	}
	t.Notes = append(t.Notes,
		"100GbE at 64B is 148.8 Mpps: one 250 MHz replica covers it; the sweep sizes 200/400GbE deployments",
		"fw LUT% is the firewall design replicated N ways on an Alveo U50 (shared maps kept single-instance)")
	return t, nil
}
