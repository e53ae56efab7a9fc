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
	// For a map-heavy design the double-buffered storage must be the
	// dominant term: at least as many BRAMs as the per-map data copies,
	// and strictly more than the shared delta log alone.
	pl := compileApp(t, "firewall", core.Options{})
	upd := EstimateLiveUpdate(pl)
	deltaOnly := (deltaLogEntries*deltaLogBits + 36*1024 - 1) / (36 * 1024)
	if upd.BRAM36 <= deltaOnly {
		t.Fatalf("firewall double buffer prices %d BRAMs, delta log alone is %d", upd.BRAM36, deltaOnly)
	}
}

func TestLiveUpdateMaplessPaysControllerOnly(t *testing.T) {
	// Swapping a map-less pipeline is an ingress mux flip: no double
	// buffer, no migration channels, no delta log — but the controller
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
