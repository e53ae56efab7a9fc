package hdl

import (
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/core"
)

// TestReplicatedMatchesSingleAtOne: a one-queue deployment is exactly
// the single pipeline — no front end, no extra ports, one copy of every
// map. This is what keeps every app inside the paper's utilisation band
// at N=1 by construction.
func TestReplicatedMatchesSingleAtOne(t *testing.T) {
	for _, app := range apps.All() {
		pl := compileApp(t, app.Name, core.Options{})
		if got, want := EstimateReplicated(pl, 1), EstimatePipeline(pl); got != want {
			t.Errorf("%s: EstimateReplicated(1) %+v != EstimatePipeline %+v", app.Name, got, want)
		}
		if got, want := EstimateDesignReplicated(pl, 1), EstimateDesign(pl); got != want {
			t.Errorf("%s: EstimateDesignReplicated(1) %+v != EstimateDesign %+v", app.Name, got, want)
		}
	}
}

// TestReplicatedBandAtOne re-states the Section 5 claim through the
// replicated entry point: at one queue every evaluation application
// stays in the calibrated 6.5%-13.3%-order band.
func TestReplicatedBandAtOne(t *testing.T) {
	dev := AlveoU50()
	for _, app := range apps.All() {
		pl := compileApp(t, app.Name, core.Options{})
		pct := EstimateDesignReplicated(pl, 1).PercentOf(dev)
		if pct.LUT < 5 || pct.LUT > 14 {
			t.Errorf("%s: LUT utilisation %.2f%% outside the calibrated band", app.Name, pct.LUT)
		}
	}
}

// TestLogicScalesLinearly: the stage datapath is stamped out once per
// replica, exactly.
func TestLogicScalesLinearly(t *testing.T) {
	pl := compileApp(t, "firewall", core.Options{})
	p1 := estimateReplicatedParts(pl, 1)
	for _, n := range []int{2, 4, 8} {
		pn := estimateReplicatedParts(pl, n)
		if pn.PerReplicaLogic != p1.PerReplicaLogic {
			t.Fatalf("%d queues: per-replica logic changed: %+v vs %+v", n, pn.PerReplicaLogic, p1.PerReplicaLogic)
		}
		if pn.Logic != p1.Logic.Scale(n) {
			t.Fatalf("%d queues: logic %+v, want %d x %+v", n, pn.Logic, n, p1.Logic)
		}
	}
}

// TestSharedMapMemoryConstant: the router's LPM table is read-only for
// the data plane, so its memory is instantiated once no matter the
// queue count — only ports and arbitration grow.
func TestSharedMapMemoryConstant(t *testing.T) {
	pl := compileApp(t, "router", core.Options{})
	shared := false
	for i := range pl.Maps {
		if pl.Maps[i].Sharing() == core.SharingShared {
			shared = true
		}
	}
	if !shared {
		t.Fatal("router has no shared map; the test premise is gone")
	}
	p1 := estimateReplicatedParts(pl, 1)
	for _, n := range []int{2, 4, 8} {
		pn := estimateReplicatedParts(pl, n)
		if pn.SharedMaps.BRAM36 != p1.SharedMaps.BRAM36 {
			t.Fatalf("%d queues: shared-map BRAM %d, want the single-instance %d",
				n, pn.SharedMaps.BRAM36, p1.SharedMaps.BRAM36)
		}
		if pn.SharedMaps.LUTs <= p1.SharedMaps.LUTs {
			t.Fatalf("%d queues: shared-map port logic did not grow", n)
		}
	}
}

// TestBankedMapsScaleWithQueues: per-flow and counter maps pay a full
// block per replica, per-CPU style.
func TestBankedMapsScaleWithQueues(t *testing.T) {
	pl := compileApp(t, "firewall", core.Options{})
	p1 := estimateReplicatedParts(pl, 1)
	if p1.BankedMaps == (Resources{}) {
		t.Fatal("firewall has no banked maps; the test premise is gone")
	}
	for _, n := range []int{2, 4, 8} {
		pn := estimateReplicatedParts(pl, n)
		if pn.BankedMaps != p1.BankedMaps.Scale(n) {
			t.Fatalf("%d queues: banked maps %+v, want %d x %+v", n, pn.BankedMaps, n, p1.BankedMaps)
		}
	}
}

// TestFrontEndShape: no classifier at one queue; above that, a fixed
// hash-and-table base plus a constant per-queue increment (the
// crossbar, FIFOs and collector ports are O(n)).
func TestFrontEndShape(t *testing.T) {
	if rssFrontEndCost(1) != (Resources{}) {
		t.Fatal("single-queue front end should be free")
	}
	slope := rssFrontEndCost(3).LUTs - rssFrontEndCost(2).LUTs
	if slope <= 0 {
		t.Fatal("front end does not grow with queues")
	}
	for n := 3; n < 8; n++ {
		if got := rssFrontEndCost(n+1).LUTs - rssFrontEndCost(n).LUTs; got != slope {
			t.Fatalf("per-queue LUT slope changed at %d queues: %d vs %d", n, got, slope)
		}
	}
	if rssFrontEndCost(4).BRAM36 != 4 {
		t.Fatalf("4-queue front end carries %d BRAM, want one ingress FIFO per queue", rssFrontEndCost(4).BRAM36)
	}
}

// TestReplicatedFitsDevice: the scale-out story only matters if it is
// realisable — all five evaluation apps at 8 queues, shell included,
// must fit the testbed's Alveo U50.
func TestReplicatedFitsDevice(t *testing.T) {
	dev := AlveoU50()
	for _, app := range apps.All() {
		pl := compileApp(t, app.Name, core.Options{})
		if util := EstimateDesignReplicated(pl, 8).PercentOf(dev).Max(); util >= 100 {
			t.Errorf("%s: 8-queue deployment needs %.1f%% of the device", app.Name, util)
		}
	}
}

// TestPartsSumToTotal keeps the breakdown honest against the headline
// number.
func TestPartsSumToTotal(t *testing.T) {
	pl := compileApp(t, "suricata", core.Options{})
	for _, n := range []int{1, 2, 4, 8} {
		parts := estimateReplicatedParts(pl, n)
		if parts.Total() != EstimateReplicated(pl, n) {
			t.Fatalf("%d queues: parts do not sum to the total", n)
		}
	}
}
