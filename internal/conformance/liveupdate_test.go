// Differential coverage of the live-update path, in the external test
// package: internal/liveupdate imports conformance's comparators, so
// these runs cannot live in package conformance without a cycle.
//
// The scenario is the paper's motivating one — replace the running NIC
// function with a different program without dropping a packet: the UDP
// firewall is swapped for the leaky-bucket rate limiter mid-run. The
// two programs share no maps, so the swap exercises the cross-program
// path: empty migration, then a canary against a reference interpreter
// running the NEW program from its freshly set-up state, over a window
// as long as the rest of the run's traffic.
package conformance_test

import (
	"reflect"
	"strings"
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/conformance"
	"ehdl/internal/core"
	"ehdl/internal/faults"
	"ehdl/internal/liveupdate"
	"ehdl/internal/nic"
	"ehdl/internal/pktgen"
)

// crossUpdateShell builds a firewall shell with a leakybucket update
// armed after `after` packets, canarying at least `canary` arrivals.
func crossUpdateShell(t *testing.T, after, canary int, mutate func(*liveupdate.Config)) *nic.Shell {
	t.Helper()
	fw, _ := apps.ByName("firewall")
	prog, err := fw.Program()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.Compile(prog, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := nic.New(pl, nic.ShellConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Pin helper time like every conformance run: the leaky bucket reads
	// bpf_ktime, and the pipelined engine executes it cycles after the
	// reference does — a pinned clock makes the diff about pipelining
	// and migration, never about time skew.
	sh.PinClock(0)

	lb, _ := apps.ByName("leakybucket")
	lbProg, err := lb.Program()
	if err != nil {
		t.Fatal(err)
	}
	ucfg := liveupdate.Config{Prog: lbProg, Setup: lb.SetupHost, CanaryPackets: canary}
	if mutate != nil {
		mutate(&ucfg)
	}
	if err := sh.ScheduleUpdate(after, ucfg); err != nil {
		t.Fatal(err)
	}
	return sh
}

func crossTraffic() *pktgen.Generator {
	// Few flows: the firewall sees established hits, the rate limiter
	// sees same-source bucket pressure (its hazard worst case).
	return pktgen.NewGenerator(pktgen.GeneratorConfig{Flows: 8, PacketLen: 64, Seed: 321})
}

// TestCrossProgramUpdateConformance swaps the firewall for the rate
// limiter mid-run and requires the swap to be differentially clean:
// zero packets dropped, and every one of the 200 canaried verdicts
// bit-for-bit equal to the reference interpreter running the new
// program from the same (here: freshly set up) state.
func TestCrossProgramUpdateConformance(t *testing.T) {
	sh := crossUpdateShell(t, 100, 200, nil)
	rep, err := sh.RunLoad(crossTraffic().Next, 500, 250e6/8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UpdatesCompleted != 1 {
		t.Fatalf("cross-program update did not complete: stage=%q failure=%q",
			rep.UpdateStage, rep.UpdateFailure)
	}
	if rep.Lost != 0 || rep.Received != rep.Sent {
		t.Fatalf("swap dropped packets: lost=%d received=%d sent=%d", rep.Lost, rep.Received, rep.Sent)
	}
	if rep.MigratedEntries != 0 {
		t.Fatalf("no maps are shared, yet %d entries migrated", rep.MigratedEntries)
	}
	if rep.CanariedPackets < 200 || rep.CanaryDivergences != 0 {
		t.Fatalf("canary: %d packets, %d divergences, want >= 200 and 0", rep.CanariedPackets, rep.CanaryDivergences)
	}
	// The serving pipeline is now the rate limiter: its maps must exist
	// and the firewall's must be gone.
	if _, ok := sh.Maps().ByName("bucket"); !ok {
		t.Fatal("new pipeline lacks the rate limiter's bucket map")
	}
	if _, ok := sh.Maps().ByName("conn"); ok {
		t.Fatal("old pipeline's conn map survived the swap")
	}
}

// TestCrossProgramRollbackKeepsOldVerdicts forces the canary to refute
// the corrupted new pipeline (an SEU campaign on the rate limiter's
// maps) and
// requires the firewall's data path to be untouched: verdict for
// verdict and map entry for map entry, the run equals one that never
// attempted the update.
func TestCrossProgramRollbackKeepsOldVerdicts(t *testing.T) {
	sh := crossUpdateShell(t, 100, 200, func(c *liveupdate.Config) {
		c.Faults = faults.New(faults.Single(faults.SEUMapEntry, 0.5, 13))
	})
	rep, err := sh.RunLoad(crossTraffic().Next, 500, 250e6/8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UpdatesRolledBack != 1 || !strings.Contains(rep.UpdateFailure, liveupdate.ErrCanaryDiverged.Error()) {
		t.Fatalf("corrupted new pipeline not rolled back by the canary: stage=%q failure=%q", rep.UpdateStage, rep.UpdateFailure)
	}

	// Control: the same traffic with no update armed.
	fw, _ := apps.ByName("firewall")
	prog, err := fw.Program()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.Compile(prog, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := nic.New(pl, nic.ShellConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctl.PinClock(0)
	crep, err := ctl.RunLoad(crossTraffic().Next, 500, 250e6/8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Actions, crep.Actions) {
		t.Fatalf("rolled-back run verdicts %v, control %v", rep.Actions, crep.Actions)
	}
	if err := conformance.CompareMaps(ctl.Maps(), sh.Maps()); err != nil {
		t.Fatalf("rolled-back run map state diverged from control: %v", err)
	}
}
