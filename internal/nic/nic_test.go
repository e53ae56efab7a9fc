package nic

import (
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/core"
	"ehdl/internal/ebpf"
	"ehdl/internal/hwsim"
	"ehdl/internal/pktgen"
)

func newShell(t *testing.T, app *apps.App, opts core.Options, cfg ShellConfig) *Shell {
	t.Helper()
	prog, err := app.Program()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.Compile(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := New(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Setup(sh.Maps()); err != nil {
		t.Fatal(err)
	}
	return sh
}

func TestLineRateForwarding(t *testing.T) {
	// Figure 9a: every eHDL pipeline forwards 148 Mpps of 64-byte
	// packets without loss.
	for _, app := range apps.All() {
		sh := newShell(t, app, core.Options{}, ShellConfig{})
		gen := pktgen.NewGenerator(app.Traffic)
		line := sh.LineRateMpps(64)
		rep, err := sh.RunLoad(gen.Next, 3000, line*1e6)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		if rep.Lost != 0 {
			t.Errorf("%s: lost %d packets at line rate", app.Name, rep.Lost)
		}
		if rep.Received != rep.Sent {
			t.Errorf("%s: received %d of %d", app.Name, rep.Received, rep.Sent)
		}
		if rep.AchievedMpps < line*0.95 {
			t.Errorf("%s: achieved %.1f Mpps at %.1f offered", app.Name, rep.AchievedMpps, line)
		}
	}
}

func TestLatencyAboutAMicrosecond(t *testing.T) {
	// Figure 9b: end-to-end forwarding latency around 1 us for every
	// use case, with the per-app variation following pipeline depth.
	for _, app := range apps.All() {
		sh := newShell(t, app, core.Options{}, ShellConfig{})
		gen := pktgen.NewGenerator(app.Traffic)
		rep, err := sh.RunLoad(gen.Next, 500, 50e6)
		if err != nil {
			t.Fatal(err)
		}
		if rep.AvgLatencyNs < 500 || rep.AvgLatencyNs > 1500 {
			t.Errorf("%s: latency %.0f ns, want about a microsecond", app.Name, rep.AvgLatencyNs)
		}
	}
}

func TestDeeperPipelineHigherLatency(t *testing.T) {
	latency := func(app *apps.App) float64 {
		sh := newShell(t, app, core.Options{}, ShellConfig{})
		gen := pktgen.NewGenerator(app.Traffic)
		rep, err := sh.RunLoad(gen.Next, 200, 10e6)
		if err != nil {
			t.Fatal(err)
		}
		return rep.AvgLatencyNs
	}
	// The tunnel pipeline (deepest, framing NOPs for adjust_head) must
	// exceed the toy pipeline's latency.
	if lt, lToy := latency(apps.Tunnel()), latency(apps.Toy()); lt <= lToy {
		t.Errorf("tunnel latency %.0f ns <= toy %.0f ns", lt, lToy)
	}
}

func TestOverloadDropsAtInput(t *testing.T) {
	// Offering more than one packet per clock must overflow the ingress
	// queue, not corrupt results.
	sh := newShell(t, apps.Toy(), core.Options{}, ShellConfig{Sim: hwsim.Config{InputQueuePackets: 32}})
	gen := pktgen.NewGenerator(apps.Toy().Traffic)
	rep, err := sh.RunLoad(gen.Next, 3000, 400e6) // 400 Mpps > 250 Mpps capacity
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lost == 0 {
		t.Error("overload produced no queue drops")
	}
	if rep.Received+rep.Lost != rep.Sent {
		t.Errorf("accounting broken: %d + %d != %d", rep.Received, rep.Lost, rep.Sent)
	}
}

func TestActionsReported(t *testing.T) {
	sh := newShell(t, apps.Toy(), core.Options{}, ShellConfig{})
	gen := pktgen.NewGenerator(apps.Toy().Traffic)
	rep, err := sh.RunLoad(gen.Next, 100, 10e6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Actions.Count(ebpf.XDPTx) != 100 {
		t.Errorf("actions = %v, want 100 XDP_TX", rep.Actions)
	}
}

func TestSaturationRamp(t *testing.T) {
	sh := newShell(t, apps.Toy(), core.Options{}, ShellConfig{Sim: hwsim.Config{InputQueuePackets: 64}})
	gen := pktgen.NewGenerator(apps.Toy().Traffic)
	sat, err := sh.SaturationMpps(gen.Next, 2000, 100, 50, 400)
	if err != nil {
		t.Fatal(err)
	}
	// The toy pipeline takes one packet per cycle: saturation at the
	// 250 MHz clock (the paper's 250 Mpps headroom claim).
	if sat < 200 || sat > 260 {
		t.Errorf("saturation = %.0f Mpps, want ~250", sat)
	}
}

func TestLargePacketsLowerPacketRate(t *testing.T) {
	sh := newShell(t, apps.Toy(), core.Options{}, ShellConfig{Sim: hwsim.Config{InputQueuePackets: 64}})
	big := func() []byte {
		return pktgen.Build(pktgen.PacketSpec{Flow: pktgen.Flow{Proto: ebpf.IPProtoUDP}, TotalLen: 512})
	}
	// 512B packets occupy 8 frames: capacity ~31 Mpps, line rate ~23.5.
	line := sh.LineRateMpps(512)
	rep, err := sh.RunLoad(big, 1000, line*1e6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lost != 0 {
		t.Errorf("lost %d large packets at their line rate", rep.Lost)
	}
}
