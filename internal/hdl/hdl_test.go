package hdl

import (
	"strings"
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/asm"
	"ehdl/internal/core"
	"ehdl/internal/protect"
)

func compileApp(t *testing.T, name string, opts core.Options) *core.Pipeline {
	t.Helper()
	app, ok := apps.ByName(name)
	if !ok {
		t.Fatalf("unknown app %q", name)
	}
	prog, err := app.Program()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.Compile(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestResourceVectorArithmetic(t *testing.T) {
	a := Resources{LUTs: 1, FFs: 2, BRAM36: 3, DSPs: 4}
	b := a.Add(a)
	if b != a.Scale(2) {
		t.Errorf("Add/Scale disagree: %+v vs %+v", b, a.Scale(2))
	}
	p := Resources{LUTs: 87_200}.PercentOf(AlveoU50())
	if p.LUT < 9.9 || p.LUT > 10.1 {
		t.Errorf("87200 LUTs on a U50 = %.2f%%, want 10%%", p.LUT)
	}
	if (Percent{LUT: 1, FF: 5, BRAM: 3}).Max() != 5 {
		t.Error("Percent.Max broken")
	}
}

func TestUtilizationBand(t *testing.T) {
	// Section 5: "the generated pipelines use only 6.5%-13.3% of the
	// FPGA hardware resources". The calibrated model must land every
	// application's LUT utilisation (including the Corundum shell) in a
	// band of that order.
	dev := AlveoU50()
	for _, app := range apps.All() {
		pl := compileApp(t, app.Name, core.Options{})
		pct := EstimateDesign(pl).PercentOf(dev)
		if pct.LUT < 5 || pct.LUT > 14 {
			t.Errorf("%s: LUT utilisation %.2f%% outside the calibrated band", app.Name, pct.LUT)
		}
		if pct.FF <= 0 || pct.BRAM <= 0 {
			t.Errorf("%s: degenerate utilisation %+v", app.Name, pct)
		}
	}
}

func TestShellDominatesSmallPrograms(t *testing.T) {
	pl := compileApp(t, "toy", core.Options{})
	design := EstimateDesign(pl)
	pipe := EstimatePipeline(pl)
	shell := CorundumShell()
	if design != pipe.Add(shell) {
		t.Error("EstimateDesign != pipeline + shell")
	}
	if pipe.LUTs >= shell.LUTs {
		t.Error("the 20-stage toy pipeline should be smaller than the shell")
	}
}

func TestPruningAblationShape(t *testing.T) {
	// Section 5.4: without pruning the pipeline needs 46%/66%/123% more
	// LUT/FF/BRAM. The model must reproduce the shape: all three grow,
	// and the ordering BRAM > FF > LUT holds.
	pruned := EstimatePipeline(compileApp(t, "toy", core.Options{}))
	unpruned := EstimatePipeline(compileApp(t, "toy", core.Options{DisablePruning: true}))

	dLUT := float64(unpruned.LUTs-pruned.LUTs) / float64(pruned.LUTs)
	dFF := float64(unpruned.FFs-pruned.FFs) / float64(pruned.FFs)
	dBRAM := float64(unpruned.BRAM36-pruned.BRAM36) / float64(max(pruned.BRAM36, 1))

	if dLUT < 0.2 {
		t.Errorf("LUT delta = %.0f%%, want a substantial increase", 100*dLUT)
	}
	if dFF <= dLUT {
		t.Errorf("FF delta (%.0f%%) should exceed LUT delta (%.0f%%)", 100*dFF, 100*dLUT)
	}
	if dBRAM <= dFF {
		t.Errorf("BRAM delta (%.0f%%) should exceed FF delta (%.0f%%)", 100*dBRAM, 100*dFF)
	}
}

func TestILPAblationShrinksPipelineResources(t *testing.T) {
	base := EstimatePipeline(compileApp(t, "firewall", core.Options{}))
	serial := EstimatePipeline(compileApp(t, "firewall", core.Options{DisableILP: true}))
	// More stages means more carried state and frame registers.
	if serial.FFs <= base.FFs {
		t.Errorf("serial pipeline FFs = %d, want more than %d", serial.FFs, base.FFs)
	}
}

func TestFrameSizeAblation(t *testing.T) {
	f64 := EstimatePipeline(compileApp(t, "toy", core.Options{FrameBytes: 64}))
	f32 := EstimatePipeline(compileApp(t, "toy", core.Options{FrameBytes: 32}))
	if f32.FFs >= f64.FFs {
		t.Errorf("32B frames (%d FFs) should carry less frame state than 64B (%d FFs)", f32.FFs, f64.FFs)
	}
}

func TestVHDLGeneration(t *testing.T) {
	for _, name := range []string{"toy", "firewall", "router", "tunnel", "dnat", "suricata"} {
		pl := compileApp(t, name, core.Options{})
		src := Generate(pl)

		checks := []string{
			"entity ehdl_" + name + "_pipeline is",
			"end entity ehdl_" + name + "_pipeline;",
			"architecture pipeline of",
			"end architecture pipeline;",
			"library ieee;",
			"use ieee.numeric_std.all;",
			"s_axis_tdata",
			"m_axis_tdest",
			"host_map_rdata",
			"component ehdl_map is",
		}
		for _, want := range checks {
			if !strings.Contains(src, want) {
				t.Errorf("%s: generated VHDL missing %q", name, want)
			}
		}
		n := elaborate(pl)
		// One process per stage plus the input process; one slice more
		// than stages, the output latch.
		if len(n.stages) != pl.NumStages()+1 || n.stages[pl.NumStages()].heads != 0 {
			t.Errorf("%s: %d register slices for %d stages", name, len(n.stages), pl.NumStages())
		}
		if got := strings.Count(src, "rising_edge(clk)"); got != pl.NumStages()+1 {
			t.Errorf("%s: %d clocked processes, want %d", name, got, pl.NumStages()+1)
		}
		// One eHDLmap node per map block, one instance printed per node.
		if len(n.maps) != len(pl.Maps) || strings.Count(src, ": ehdl_map") != len(n.maps) {
			t.Errorf("%s: %d map nodes, %d instances, want %d", name, len(n.maps), strings.Count(src, ": ehdl_map"), len(pl.Maps))
		}
		// Structural balance.
		if strings.Count(src, "process(clk)") != strings.Count(src, "end process;") {
			t.Errorf("%s: unbalanced process blocks", name)
		}
		if strings.Count(src, "if rising_edge") != strings.Count(src, "end if;\n  end process;") {
			t.Errorf("%s: unbalanced clocked bodies", name)
		}
	}
}

func TestVHDLDeterministic(t *testing.T) {
	pl := compileApp(t, "toy", core.Options{})
	if Generate(pl) != Generate(pl) {
		t.Error("generator output is not deterministic")
	}
}

func TestVHDLFlushBlockPresence(t *testing.T) {
	flushEval := func(app string) bool {
		for _, m := range elaborate(compileApp(t, app, core.Options{})).maps {
			if m.flushEval {
				return true
			}
		}
		return false
	}
	if !flushEval("leakybucket") {
		t.Error("leaky bucket does not instantiate a Flush Evaluation Block")
	}
	if flushEval("toy") {
		t.Error("toy instantiates a flush block despite atomic-only access")
	}
}

func TestVHDLMentionsEveryInstruction(t *testing.T) {
	pl := compileApp(t, "toy", core.Options{})
	src := Generate(pl)
	scheduled := 0
	for s := range pl.Stages {
		for i := range pl.Stages[s].Ops {
			scheduled += pl.Stages[s].Ops[i].InstructionCount()
		}
	}
	// Every scheduled op appears as a "-- [kind] instr" comment.
	if got := strings.Count(src, "-- ["); got < scheduled-len(pl.Stages) {
		t.Errorf("only %d op annotations for %d scheduled instructions", got, scheduled)
	}
}

func TestTestbenchGeneration(t *testing.T) {
	pl := compileApp(t, "toy", core.Options{})
	stimuli := []Stimulus{
		{Packet: make([]byte, 64), Verdict: 3},
		{Packet: make([]byte, 200), Verdict: 3},
	}
	tb := GenerateTestbench(pl, stimuli)
	for _, want := range []string{
		"entity ehdl_toy_pipeline_tb is",
		"dut : entity work.ehdl_toy_pipeline",
		"CLK_PERIOD : time := 4 ns",
		"when 0 => assert m_tdest = \"011\"",
		"when 1 => assert m_tdest = \"011\"",
		"end architecture sim;",
	} {
		if !strings.Contains(tb, want) {
			t.Errorf("testbench missing %q", want)
		}
	}
	// A 200-byte packet at 64-byte frames is 4 frames: 4 data beats for
	// stimulus 1 plus 1 for stimulus 0.
	if got := strings.Count(tb, "s_tdata <= x\""); got != 5 {
		t.Errorf("data beats = %d, want 5", got)
	}
	// The final beat of each packet raises tlast.
	if got := strings.Count(tb, "s_tlast <= '1'"); got != 2 {
		t.Errorf("tlast beats = %d, want 2", got)
	}
}

func TestTestbenchFrameHexWidth(t *testing.T) {
	pl := compileApp(t, "toy", core.Options{})
	tb := GenerateTestbench(pl, []Stimulus{{Packet: []byte{0xaa, 0xbb}, Verdict: 1}})
	// One 64-byte frame = 128 hex digits, with the first packet byte in
	// the low lanes.
	idx := strings.Index(tb, "s_tdata <= x\"")
	if idx < 0 {
		t.Fatal("no data beat")
	}
	lit := tb[idx+len("s_tdata <= x\""):]
	lit = lit[:strings.Index(lit, "\"")]
	if len(lit) != 128 {
		t.Fatalf("frame literal is %d digits, want 128", len(lit))
	}
	if !strings.HasSuffix(lit, "bbaa") {
		t.Errorf("low lanes = ...%s, want ...bbaa", lit[len(lit)-4:])
	}
}

func TestProtectionCostShape(t *testing.T) {
	// The protection-vs-resources contract: none is free, parity is
	// cheaper than ECC, and the full ECC + scrub + checkpoint premium
	// stays a small fraction of the design — within 2 percentage points
	// of device utilisation on top of the paper's 6.5%-13.3% band.
	dev := AlveoU50()
	for _, app := range apps.All() {
		pl := compileApp(t, app.Name, core.Options{})
		none := EstimateProtection(pl, protect.LevelNone)
		parity := EstimateProtection(pl, protect.LevelParity)
		ecc := EstimateProtection(pl, protect.LevelECC)
		if none != (Resources{}) {
			t.Errorf("%s: LevelNone costs %+v, want zero", app.Name, none)
		}
		if parity.LUTs <= 0 || ecc.LUTs <= parity.LUTs {
			t.Errorf("%s: cost ordering broken: parity %+v, ecc %+v", app.Name, parity, ecc)
		}
		if ecc.BRAM36 < parity.BRAM36 {
			t.Errorf("%s: ECC stores fewer check bits than parity: %+v vs %+v", app.Name, ecc, parity)
		}
		design := EstimateDesign(pl)
		base := design.PercentOf(dev).Max()
		prot := design.Add(ecc).PercentOf(dev).Max()
		premium := prot - base
		if premium <= 0 {
			t.Errorf("%s: ECC premium %.3f points, want positive", app.Name, premium)
		}
		if premium > 2.0 {
			t.Errorf("%s: ECC premium %.2f utilisation points exceeds the 2-point bound", app.Name, premium)
		}
	}
}

func TestProtectionCostlessWithoutMaps(t *testing.T) {
	// A pipeline with no maps has nothing to protect: no scrubber, no
	// checkpoint controller, no check bits.
	prog, err := asm.Assemble("nomap", "r0 = 2\nexit\n")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.Compile(prog, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := EstimateProtection(pl, protect.LevelECC); got != (Resources{}) {
		t.Errorf("map-less pipeline prices protection at %+v", got)
	}
}
