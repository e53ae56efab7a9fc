package hdl

import (
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/asm"
	"ehdl/internal/core"
)

func TestLiveUpdateCostShape(t *testing.T) {
	// The hot-swap contract: every app prices positive (the controller
	// and canary path are unconditional), map-bearing designs pay the
	// double buffer in BRAM, and the whole updatable design still fits
	// the target device.
	dev := AlveoU50()
	for _, app := range apps.All() {
		pl := compileApp(t, app.Name, core.Options{})
		upd := EstimateLiveUpdate(pl)
		if upd.LUTs <= 0 || upd.FFs <= 0 {
			t.Errorf("%s: live-update logic prices at %+v, want positive", app.Name, upd)
		}
		if len(pl.Maps) > 0 && upd.BRAM36 <= 0 {
			t.Errorf("%s: maps present but no double-buffer BRAM priced: %+v", app.Name, upd)
		}
		if util := EstimateDesign(pl).Add(upd).PercentOf(dev).Max(); util >= 100 {
			t.Errorf("%s: updatable design does not fit the U50: %.1f%% utilisation", app.Name, util)
		}
	}
}

func TestLiveUpdateDoubleBufferDominates(t *testing.T) {
	// For a map-heavy design the double-buffered storage is the whole
	// BRAM bill: one more copy of every map's data words, and nothing
	// else of the update protocol sits in BRAM.
	pl := compileApp(t, "firewall", core.Options{})
	upd := EstimateLiveUpdate(pl)
	var copies int
	for _, m := range elaborateMaps(pl) {
		copies += bram36(m.dataBits)
	}
	if copies == 0 || upd.BRAM36 != copies {
		t.Fatalf("firewall update prices %d BRAMs, its maps' second copy %d", upd.BRAM36, copies)
	}
}

func TestLiveUpdateMaplessPaysControllerOnly(t *testing.T) {
	// Swapping a map-less pipeline is an ingress mux flip: no double
	// buffer, no migration channels — but the controller
	// and the canary tap are still there.
	prog, err := asm.Assemble("nomap", "r0 = 2\nexit\n")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.Compile(prog, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	upd := EstimateLiveUpdate(pl)
	if upd.BRAM36 != 0 {
		t.Errorf("map-less pipeline prices %d double-buffer BRAMs, want 0", upd.BRAM36)
	}
	if want := (Resources{LUTs: canaryLUTs + reconfLUTs, FFs: canaryFFs + reconfFFs}); upd != want {
		t.Errorf("map-less update cost %+v, want controller+canary %+v", upd, want)
	}
}
