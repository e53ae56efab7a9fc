// Package baseline_test exercises the three comparison systems together
// so the Figure 9/10 relationships hold by construction.
package baseline_test

import (
	"errors"
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/baseline/bluefield"
	"ehdl/internal/baseline/hxdp"
	"ehdl/internal/baseline/sdnet"
	"ehdl/internal/core"
	"ehdl/internal/ebpf"
	"ehdl/internal/hdl"
	"ehdl/internal/pktgen"
)

func mustProgram(t *testing.T, app *apps.App) *ebpf.Program {
	t.Helper()
	prog, err := app.Program()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestHXDPThroughputBand(t *testing.T) {
	// Figure 9a: hXDP forwards 0.9-5.4 Mpps depending on the program.
	m := hxdp.New()
	for _, app := range apps.All() {
		gen := pktgen.NewGenerator(app.Traffic)
		rep, err := m.RunApp(mustProgram(t, app), app.SetupHost, gen, 300)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		if rep.Mpps < 0.5 || rep.Mpps > 8 {
			t.Errorf("%s: hXDP %.2f Mpps outside the paper's 0.9-5.4 band", app.Name, rep.Mpps)
		}
		if rep.CyclesPerPacket < 30 {
			t.Errorf("%s: %.0f cycles/packet is implausibly fast", app.Name, rep.CyclesPerPacket)
		}
	}
}

func TestHXDPStaticBundleCompression(t *testing.T) {
	// Figure 9c: the VLIW compiler reduces instruction counts, sometimes
	// by about 50%.
	m := hxdp.New()
	for _, app := range apps.All() {
		prog := mustProgram(t, app)
		bundles, err := m.StaticBundles(prog)
		if err != nil {
			t.Fatal(err)
		}
		n := len(prog.Instructions)
		if bundles >= n {
			t.Errorf("%s: %d bundles for %d instructions: no compression", app.Name, bundles, n)
		}
		if bundles < n/3 {
			t.Errorf("%s: %d bundles for %d instructions: over-compression", app.Name, bundles, n)
		}
	}
}

func TestBluefieldScaling(t *testing.T) {
	app := apps.Firewall()
	gen := pktgen.NewGenerator(app.Traffic)
	packets := 300

	rep1, err := bluefield.New(1).RunApp(mustProgram(t, app), app.SetupHost, gen, packets)
	if err != nil {
		t.Fatal(err)
	}
	gen = pktgen.NewGenerator(app.Traffic)
	rep4, err := bluefield.New(4).RunApp(mustProgram(t, app), app.SetupHost, gen, packets)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 9a: one core in the low Mpps, four cores near-linear.
	if rep1.Mpps < 0.5 || rep1.Mpps > 8 {
		t.Errorf("Bf2 1c = %.2f Mpps, outside the plausible band", rep1.Mpps)
	}
	ratio := rep4.Mpps / rep1.Mpps
	if ratio < 3.5 || ratio > 4.05 {
		t.Errorf("4-core scaling ratio = %.2f, want near-linear", ratio)
	}
	// Latency is 10x the FPGA's (Section 5.1 keeps it off Figure 9b).
	if rep1.AvgLatencyNs < 300 {
		t.Errorf("Bf2 latency %.0f ns implausibly low", rep1.AvgLatencyNs)
	}
}

func TestSDNetRejectsDNAT(t *testing.T) {
	_, err := sdnet.Compile(apps.DNAT())
	if !errors.Is(err, sdnet.ErrNotExpressible) {
		t.Fatalf("SDNet accepted the dynamic NAT: %v", err)
	}
	for _, app := range []*apps.App{apps.Firewall(), apps.Router(), apps.Tunnel(), apps.Suricata()} {
		if _, err := sdnet.Compile(app); err != nil {
			t.Errorf("%s: %v", app.Name, err)
		}
	}
}

func TestSDNetLineRate(t *testing.T) {
	d, err := sdnet.Compile(apps.Router())
	if err != nil {
		t.Fatal(err)
	}
	mpps := d.ThroughputMpps(100, 64)
	if mpps < 148 || mpps > 150 {
		t.Errorf("SDNet line rate = %.1f Mpps, want ~148.8", mpps)
	}
}

func TestResourceOrderingAcrossSystems(t *testing.T) {
	// Figure 10: eHDL is comparable to hXDP and 2-4x below SDNet.
	hx := hxdp.New().Resources()
	for _, app := range apps.All() {
		pl, err := core.Compile(mustProgram(t, app), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		eh := hdl.EstimateDesign(pl)

		// eHDL vs hXDP: same order of magnitude.
		ratio := float64(eh.LUTs) / float64(hx.LUTs)
		if ratio < 0.5 || ratio > 2 {
			t.Errorf("%s: eHDL/hXDP LUT ratio %.2f, want comparable", app.Name, ratio)
		}

		if !app.P4Expressible {
			continue
		}
		d, err := sdnet.Compile(app)
		if err != nil {
			t.Fatal(err)
		}
		sd := d.Resources()
		sdRatio := float64(sd.LUTs) / float64(eh.LUTs)
		if sdRatio < 1.8 || sdRatio > 4.5 {
			t.Errorf("%s: SDNet/eHDL LUT ratio %.2f, want 2-4x", app.Name, sdRatio)
		}
	}
}

func TestEHDLBeatsProcessorsBy10to100x(t *testing.T) {
	// The headline comparison: eHDL forwards line rate (148 Mpps at 64B)
	// while the processor baselines manage 0.9-5.4 Mpps — a 10-100x gap.
	line := pktgen.LineRatePPS(100e9, 64) / 1e6
	m := hxdp.New()
	for _, app := range apps.All() {
		gen := pktgen.NewGenerator(app.Traffic)
		rep, err := m.RunApp(mustProgram(t, app), app.SetupHost, gen, 200)
		if err != nil {
			t.Fatal(err)
		}
		gap := line / rep.Mpps
		if gap < 10 || gap > 300 {
			t.Errorf("%s: eHDL/hXDP gap = %.0fx, want within 10-100x (order)", app.Name, gap)
		}
	}
}
