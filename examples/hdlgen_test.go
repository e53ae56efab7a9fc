package examples

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"ehdl/internal/apps"
	"ehdl/internal/core"
	"ehdl/internal/hdl"
)

// HDL generation: compile every evaluation application, write its VHDL
// design and testbench to a directory, and print the per-design summary
// Vivado users would check before synthesis. This is the artifact the
// eHDL toolchain hands to the FPGA flow (Section 4.5).
func Example_hdlgen() {
	outDir, err := os.MkdirTemp("", "vhdl_out")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(outDir)

	dev := hdl.AlveoU50()
	fmt.Printf("target: %s (%d LUTs, %d FFs, %d BRAM36)\n", dev.Name, dev.LUTs, dev.FFs, dev.BRAM36)
	fmt.Printf("%-12s %8s %8s %10s %10s %8s\n", "program", "stages", "VHDL kB", "LUT %", "FF %", "BRAM %")

	for _, app := range append(apps.All(), apps.Toy(), apps.LeakyBucket()) {
		prog, err := app.Program()
		if err != nil {
			log.Fatal(err)
		}
		pl, err := core.Compile(prog, core.Options{})
		if err != nil {
			log.Fatal(err)
		}
		src := hdl.Generate(pl)
		if err := os.WriteFile(filepath.Join(outDir, "ehdl_"+app.Name+".vhd"), []byte(src), 0o644); err != nil {
			log.Fatal(err)
		}
		tb := hdl.GenerateTestbench(pl, nil)
		if err := os.WriteFile(filepath.Join(outDir, "ehdl_"+app.Name+"_tb.vhd"), []byte(tb), 0o644); err != nil {
			log.Fatal(err)
		}
		pct := hdl.EstimateDesign(pl).PercentOf(dev)
		fmt.Printf("%-12s %8d %8.1f %9.2f%% %9.2f%% %7.2f%%\n",
			app.Name, pl.NumStages(), float64(len(src))/1024, pct.LUT, pct.FF, pct.BRAM)
	}
	files, err := os.ReadDir(outDir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d design and testbench files written\n", len(files))
	// Output:
	// target: xcu50-fsvh2104-2-e (872000 LUTs, 1743000 FFs, 1344 BRAM36)
	// program        stages  VHDL kB      LUT %       FF %   BRAM %
	// firewall           44     77.1      6.71%      5.91%   14.36%
	// router             44     59.5      6.53%      5.72%    9.45%
	// tunnel             61     87.4      7.74%      7.19%    9.15%
	// dnat               38     62.1      6.39%      5.58%   14.36%
	// suricata           60    110.0      7.14%      6.37%   16.44%
	// toy                18     28.9      5.49%      4.68%    9.00%
	// leakybucket        36     59.1      6.36%      5.52%   19.64%
	// 14 design and testbench files written
}
