package experiments

import (
	"strconv"
	"strings"
	"testing"
)

var quickCfg = Config{Packets: 1500}

func run(t *testing.T, id string) Table {
	t.Helper()
	runner, ok := All()[id]
	if !ok {
		t.Fatalf("unknown experiment %q", id)
	}
	tab, err := runner(quickCfg)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if tab.ID != id {
		t.Errorf("%s: table reports ID %q", id, tab.ID)
	}
	return tab
}

func cell(t *testing.T, tab Table, row int, col string) string {
	t.Helper()
	for i, c := range tab.Columns {
		if c == col {
			return tab.Rows[row][i]
		}
	}
	t.Fatalf("%s: no column %q", tab.ID, col)
	return ""
}

func cellF(t *testing.T, tab Table, row int, col string) float64 {
	t.Helper()
	s := cell(t, tab, row, col)
	s = strings.Fields(s)[0] // strip "(N lost)" suffixes
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s: cell %q is not numeric: %v", tab.ID, s, err)
	}
	return v
}

func TestIDsCoverAllExperiments(t *testing.T) {
	ids := IDs()
	if len(ids) != len(All()) {
		t.Fatalf("IDs() returned %d of %d", len(ids), len(All()))
	}
	for _, want := range []string{"fig8", "fig9a", "fig9b", "fig9c", "fig10", "table2", "table3", "table4", "table5", "pruning", "single-flow", "power", "hazard"} {
		found := false
		for _, id := range ids {
			if id == want {
				found = true
			}
		}
		if !found {
			t.Errorf("experiment %q missing", want)
		}
	}
}

func TestFig9aShape(t *testing.T) {
	tab := run(t, "fig9a")
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for i, row := range tab.Rows {
		name := row[0]
		ehdl := cellF(t, tab, i, "eHDL")
		hx := cellF(t, tab, i, "hXDP")
		bf1 := cellF(t, tab, i, "Bf2 1c")
		bf4 := cellF(t, tab, i, "Bf2 4c")
		if ehdl < 140 {
			t.Errorf("%s: eHDL %.1f Mpps, want line rate (~148)", name, ehdl)
		}
		if strings.Contains(row[1], "lost") {
			t.Errorf("%s: eHDL lost packets at line rate", name)
		}
		if gap := ehdl / hx; gap < 10 || gap > 300 {
			t.Errorf("%s: eHDL/hXDP gap %.0fx outside 10-100x order", name, gap)
		}
		if bf4 <= 3*bf1 {
			t.Errorf("%s: Bf2 cores do not scale (%.2f vs %.2f)", name, bf4, bf1)
		}
		if name == "dnat" {
			if cell(t, tab, i, "SDNet") != "n/a" {
				t.Error("SDNet must not implement DNAT")
			}
		} else if cellF(t, tab, i, "SDNet") < 148 {
			t.Errorf("%s: SDNet below line rate", name)
		}
	}
}

func TestFig9bShape(t *testing.T) {
	tab := run(t, "fig9b")
	for i, row := range tab.Rows {
		e := cellF(t, tab, i, "eHDL avg")
		h := cellF(t, tab, i, "hXDP")
		if e < 400 || e > 1500 {
			t.Errorf("%s: eHDL latency %.0f ns, want ~1us", row[0], e)
		}
		if h < 400 || h > 2000 {
			t.Errorf("%s: hXDP latency %.0f ns, want ~1us", row[0], h)
		}
	}
}

func TestFig9cShape(t *testing.T) {
	tab := run(t, "fig9c")
	for i, row := range tab.Rows {
		stages := cellF(t, tab, i, "eHDL stages")
		bundles := cellF(t, tab, i, "hXDP instr")
		orig := cellF(t, tab, i, "Original instr")
		if stages >= orig {
			t.Errorf("%s: %v stages vs %v instructions: no compression", row[0], stages, orig)
		}
		if bundles >= orig {
			t.Errorf("%s: hXDP bundles did not compress", row[0])
		}
	}
}

func TestFig10Shape(t *testing.T) {
	tab := run(t, "fig10")
	for i, row := range tab.Rows {
		eh := cellF(t, tab, i, "eHDL LUT")
		hx := cellF(t, tab, i, "hXDP LUT")
		if eh < 5 || eh > 14 {
			t.Errorf("%s: eHDL LUT %.2f%% outside the paper band", row[0], eh)
		}
		if ratio := eh / hx; ratio < 0.5 || ratio > 2 {
			t.Errorf("%s: eHDL/hXDP not comparable (%.2f)", row[0], ratio)
		}
		if row[0] == "dnat" {
			continue
		}
		sd := cellF(t, tab, i, "SDNet LUT")
		if ratio := sd / eh; ratio < 1.8 || ratio > 4.5 {
			t.Errorf("%s: SDNet/eHDL LUT ratio %.2f, want 2-4x", row[0], ratio)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	tab := run(t, "table2")
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	caida := cellF(t, tab, 0, "# flushes/sec")
	mawi := cellF(t, tab, 1, "# flushes/sec")
	if cell(t, tab, 0, "# lost packets") != "0" || cell(t, tab, 1, "# lost packets") != "0" {
		t.Error("trace replay lost packets; the paper reports zero loss")
	}
	if caida <= mawi {
		t.Errorf("flush ordering: CAIDA %.0f/s <= MAWI %.0f/s; paper has CAIDA higher", caida, mawi)
	}
	// Order of magnitude: hundreds of thousands per second.
	if caida < 5e4 || caida > 5e6 {
		t.Errorf("CAIDA flush rate %.0f/s outside the plausible decade", caida)
	}
}

func TestSingleFlowDegrades(t *testing.T) {
	tab := run(t, "single-flow")
	trace := cellF(t, tab, 0, "Sustained Mpps")
	single := cellF(t, tab, 1, "Sustained Mpps")
	if trace < 25 {
		t.Errorf("CAIDA-profile rate %.1f Mpps, want ~29", trace)
	}
	if single >= trace {
		t.Errorf("single-flow rate %.1f did not degrade from %.1f", single, trace)
	}
}

func TestPruningShape(t *testing.T) {
	tab := run(t, "pruning")
	dLUT := cellF(t, tab, 2, "LUTs")
	dFF := cellF(t, tab, 2, "FFs")
	dBRAM := cellF(t, tab, 2, "BRAM36")
	if dLUT < 20 || dFF <= dLUT || dBRAM <= dFF {
		t.Errorf("pruning deltas %.0f/%.0f/%.0f%%: want growing LUT<FF<BRAM like the paper's 46/66/123", dLUT, dFF, dBRAM)
	}
}

func TestTable4Shape(t *testing.T) {
	tab := run(t, "table4")
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	prevK := 1e9
	for i := range tab.Rows {
		k := cellF(t, tab, i, "Kmax")
		if k >= prevK {
			t.Error("Kmax must shrink as L grows")
		}
		prevK = k
	}
}

func TestTable5Shape(t *testing.T) {
	tab := run(t, "table5")
	maxSeen := 0.0
	for i, row := range tab.Rows {
		avg := cellF(t, tab, i, "avg ILP")
		m := cellF(t, tab, i, "max ILP")
		if avg < 1 || avg > 3 {
			t.Errorf("%s: avg ILP %.2f outside the paper's 1.4-2.4 order", row[0], avg)
		}
		if m > maxSeen {
			maxSeen = m
		}
		if row[0] == "tunnel" && m < 6 {
			t.Errorf("tunnel max ILP %.0f: the encapsulation stores should parallelise widely", m)
		}
	}
	if maxSeen < 5 {
		t.Errorf("max ILP %f: no program reaches wide parallelism", maxSeen)
	}
}

func TestHazardAblation(t *testing.T) {
	tab := run(t, "hazard")
	flushCycles := cellF(t, tab, 0, "Cycles")
	stallCycles := cellF(t, tab, 1, "Cycles")
	if stallCycles <= flushCycles {
		t.Errorf("stall (%v cycles) should be slower than flush (%v) on hazard-free traffic", stallCycles, flushCycles)
	}
}

func TestFramingAblation(t *testing.T) {
	tab := run(t, "framing")
	nops32 := cellF(t, tab, 0, "NOPs")
	nops64 := cellF(t, tab, 1, "NOPs")
	if nops32 <= nops64 {
		t.Error("32-byte frames should need more framing NOPs")
	}
	ff64 := cellF(t, tab, 1, "Pipeline FFs")
	ff128 := cellF(t, tab, 2, "Pipeline FFs")
	if ff128 <= ff64 {
		t.Error("wider frames should carry more state")
	}
}

// TestPowerBands holds the Section 5.2 bands to the paper: 80-85 W for
// the U50 host whatever design is flashed, 100-105 W for the Bluefield-2
// host.
func TestPowerBands(t *testing.T) {
	for _, b := range powerBands {
		switch {
		case b.nic == "Bluefield-2":
			if b.minWatts != 100 || b.maxWatts != 105 {
				t.Errorf("%s band = %v-%v W, the paper says 100-105", b.nic, b.minWatts, b.maxWatts)
			}
		case strings.HasPrefix(b.nic, "Alveo U50 ("):
			if b.minWatts != 80 || b.maxWatts != 85 {
				t.Errorf("%s band = %v-%v W, the paper says 80-85", b.nic, b.minWatts, b.maxWatts)
			}
		default:
			t.Errorf("unexpected host %q", b.nic)
		}
	}
}

// TestPowerEnergyPerPacket checks the Section 5.2 energy estimate: a DPU
// spends far more energy per packet than the FPGA.
func TestPowerEnergyPerPacket(t *testing.T) {
	var fpga, dpu float64
	for _, b := range powerBands {
		switch b.nic {
		case "Bluefield-2":
			dpu = b.nanojoulesPerPacket()
		case "Alveo U50 (eHDL)":
			fpga = b.nanojoulesPerPacket()
		}
	}
	// At 148 Mpps the FPGA host spends well under a microjoule per
	// packet; a 3 Mpps processor spends ~30x more.
	if fpga <= 0 || dpu <= 0 {
		t.Fatalf("degenerate energy figures: FPGA %v, DPU %v nJ/packet", fpga, dpu)
	}
	if dpu/fpga < 20 {
		t.Errorf("energy ratio DPU/FPGA = %.1f, want large", dpu/fpga)
	}
}

func TestTableRendering(t *testing.T) {
	tab := run(t, "table1")
	out := tab.String()
	if !strings.Contains(out, "table1") || !strings.Contains(out, "dnat") {
		t.Errorf("rendered table malformed:\n%s", out)
	}
}

func TestFig8MatchesPaperScale(t *testing.T) {
	tab := run(t, "fig8")
	if len(tab.Rows) < 15 || len(tab.Rows) > 25 {
		t.Errorf("toy pipeline has %d stages; the paper's Figure 8 has 20", len(tab.Rows))
	}
}

func TestResilienceShape(t *testing.T) {
	tab := run(t, "resilience")
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d, want a baseline plus one per fault class", len(tab.Rows))
	}
	if tab.Rows[0][0] != "none" {
		t.Fatalf("first row %q, want the fault-free baseline", tab.Rows[0][0])
	}
	if got := cellF(t, tab, 0, "Faults"); got != 0 {
		t.Errorf("baseline row injected %v faults", got)
	}
	if cellF(t, tab, 0, "Aborted") != 0 || cellF(t, tab, 0, "Watchdog") != 0 {
		t.Error("fault-free baseline shows aborts or watchdog trips")
	}
	for i, row := range tab.Rows {
		sent := cellF(t, tab, i, "Sent")
		recv := cellF(t, tab, i, "Received")
		if sent == 0 {
			t.Errorf("%s: campaign sent nothing", row[0])
		}
		if recv == 0 {
			t.Errorf("%s: pipeline answered nothing — degradation was not graceful", row[0])
		}
		if cellF(t, tab, i, "Watchdog") != 0 {
			t.Errorf("%s: watchdog tripped during a survivable campaign", row[0])
		}
		if i > 0 && cellF(t, tab, i, "Faults") == 0 {
			t.Errorf("%s: campaign injected no faults", row[0])
		}
	}
}

func TestProtectionAblationShape(t *testing.T) {
	tab := run(t, "protection")
	if len(tab.Rows)%3 != 0 || len(tab.Rows) == 0 {
		t.Fatalf("rows = %d, want three levels per app", len(tab.Rows))
	}
	for i := 0; i < len(tab.Rows); i += 3 {
		name := tab.Rows[i][0]
		if tab.Rows[i][1] != "none" || tab.Rows[i+1][1] != "parity" || tab.Rows[i+2][1] != "ecc" {
			t.Fatalf("%s: level order %q/%q/%q, want none/parity/ecc",
				name, tab.Rows[i][1], tab.Rows[i+1][1], tab.Rows[i+2][1])
		}
		if got := cellF(t, tab, i, "Premium pts"); got != 0 {
			t.Errorf("%s: unprotected premium %.2f, want 0", name, got)
		}
		parity := cellF(t, tab, i+1, "Premium pts")
		ecc := cellF(t, tab, i+2, "Premium pts")
		// ECC never undercuts parity; the two can tie when a small map's
		// check bits fit one BRAM block either way.
		if parity <= 0 || ecc < parity {
			t.Errorf("%s: premium ordering broken: parity %.2f, ecc %.2f", name, parity, ecc)
		}
		// The stated bound of the ablation: full ECC protection costs at
		// most 2 utilisation points on top of the unprotected design.
		if ecc > 2.0 {
			t.Errorf("%s: ECC premium %.2f points exceeds the stated 2-point bound", name, ecc)
		}
	}
}

func TestLiveUpdateUnderLoadShape(t *testing.T) {
	tab := run(t, "liveupdate")
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want a clean swap and a forced rollback", len(tab.Rows))
	}
	if got := cell(t, tab, 0, "Outcome"); got != "hitless" {
		t.Fatalf("clean swap outcome %q", got)
	}
	if lost := cellF(t, tab, 0, "Lost"); lost != 0 {
		t.Errorf("clean swap lost %v packets — not hitless", lost)
	}
	if cellF(t, tab, 0, "Canaried") < 8 || cellF(t, tab, 0, "Diverged") != 0 {
		t.Errorf("clean swap canary row broken: %v", tab.Rows[0])
	}
	if got := cell(t, tab, 1, "Outcome"); !strings.Contains(got, "rolled back") {
		t.Fatalf("corrupted shadow outcome %q, want a rollback", got)
	}
	if lost := cellF(t, tab, 1, "Lost"); lost != 0 {
		t.Errorf("rollback lost %v packets — the old pipeline must keep serving", lost)
	}
}

func TestLoadBalancerDemo(t *testing.T) {
	tab := run(t, "lb")
	if len(tab.Rows) != 4 {
		t.Fatalf("backends = %d", len(tab.Rows))
	}
	for i := range tab.Rows {
		share := cellF(t, tab, i, "Share %")
		if share < 10 || share > 45 {
			t.Errorf("backend %d share %.1f%%: distribution skewed", i, share)
		}
	}
}

func TestScalingShape(t *testing.T) {
	tab := run(t, "scaling")
	if len(tab.Rows) != len(scalingQueues) {
		t.Fatalf("rows = %d, want %d queue points", len(tab.Rows), len(scalingQueues))
	}
	base := cellF(t, tab, 0, "Achieved Mpps")
	baseLUT := cellF(t, tab, 0, "fw LUT%")
	for i, q := range scalingQueues {
		if got := cellF(t, tab, i, "Queues"); got != float64(q) {
			t.Fatalf("row %d covers %v queues, want %d", i, got, q)
		}
		if lost := cellF(t, tab, i, "Lost"); lost != 0 {
			t.Errorf("q%d: lost %v packets at 85%% aggregate load", q, lost)
		}
		if lut := cellF(t, tab, i, "fw LUT%"); lut < baseLUT {
			t.Errorf("q%d: replicated design costs %.1f%% LUTs, below the single-queue %.1f%%", q, lut, baseLUT)
		}
	}
	if sp := cellF(t, tab, 2, "Achieved Mpps") / base; sp < 2.5 {
		t.Errorf("4-queue speedup %.2fx in simulated time, want >= 2.5x", sp)
	}
	if active := cellF(t, tab, 3, "Active"); active < 2 {
		t.Errorf("8 queues but only %v active", active)
	}
}
