package nic

import (
	"reflect"
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/conformance"
	"ehdl/internal/core"
	"ehdl/internal/hwsim"
	"ehdl/internal/liveupdate"
	"ehdl/internal/obs"
	"ehdl/internal/pktgen"
	"ehdl/internal/protect"
)

// TestFastPathReportMatchesInterpreter drives every app's seeded
// traffic at line rate through an interpreted shell and a compiled one
// and demands the externally visible ledger — sent, received, lost,
// per-verdict histogram — and the final map state agree exactly. The
// two engines may disagree on cycle counts (the fast path models the
// hazard-free skeleton), never on what happened to the packets.
func TestFastPathReportMatchesInterpreter(t *testing.T) {
	const count = 2000
	for _, app := range apps.All() {
		slow := newShell(t, app, core.Options{}, ShellConfig{})
		fast := newShell(t, app, core.Options{}, ShellConfig{FastPath: true})
		if !fast.FastPath() {
			t.Fatalf("%s: FastPath()=false on an eligible config", app.Name)
		}
		rate := slow.LineRateMpps(64) * 1e6
		run := func(sh *Shell) Report {
			gen := pktgen.NewGenerator(app.Traffic)
			rep, err := sh.RunLoad(gen.Next, count, rate)
			if err != nil {
				t.Fatalf("%s: %v", app.Name, err)
			}
			return rep
		}
		sr, fr := run(slow), run(fast)
		if sr.Sent != fr.Sent || sr.Received != fr.Received || sr.Lost != fr.Lost {
			t.Errorf("%s: ledger sent/received/lost %d/%d/%d (interp) vs %d/%d/%d (fast)",
				app.Name, sr.Sent, sr.Received, sr.Lost, fr.Sent, fr.Received, fr.Lost)
		}
		if sr.MalformedDropped != fr.MalformedDropped {
			t.Errorf("%s: malformed %d vs %d", app.Name, sr.MalformedDropped, fr.MalformedDropped)
		}
		if !reflect.DeepEqual(sr.Actions, fr.Actions) {
			t.Errorf("%s: verdict histogram %v (interp) vs %v (fast)", app.Name, sr.Actions, fr.Actions)
		}
		if err := conformance.CompareMaps(slow.Maps(), fast.Maps()); err != nil {
			t.Errorf("%s: %v", app.Name, err)
		}
	}
}

// TestFastPathFallbackMatrix: every feature the compiled engine does
// not implement silently keeps the interpreter in charge — FastPath()
// reports the truth and the run still completes. This is the
// executable form of the fallback matrix in DESIGN.md.
func TestFastPathFallbackMatrix(t *testing.T) {
	cases := map[string]hwsim.Config{
		"protection":   {Protection: protect.LevelParity},
		"watchdog":     {WatchdogCycles: 64},
		"stall-policy": {Policy: hwsim.PolicyStall},
		"metrics":      {Metrics: obs.NewRegistry()},
	}
	app := apps.Toy()
	for name, sim := range cases {
		sh := newShell(t, app, core.Options{}, ShellConfig{FastPath: true, Sim: sim})
		if sh.FastPath() {
			t.Errorf("%s: FastPath()=true on an ineligible config", name)
		}
		gen := pktgen.NewGenerator(app.Traffic)
		rep, err := sh.RunLoad(gen.Next, 300, 50e6)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Received == 0 {
			t.Errorf("%s: interpreter fallback processed no packets", name)
		}
	}
}

// TestFastPathServesThroughUpdate: a live update builds its new engine
// the way construction does, so a compiled single-queue shell stays
// compiled across a committed update — with the update armed, after
// the swap and on the next run — and the update commits hitlessly.
func TestFastPathServesThroughUpdate(t *testing.T) {
	const count = 1200
	app := apps.Toy()
	sh := newShell(t, app, core.Options{}, ShellConfig{FastPath: true})
	prog, err := app.Program()
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.ScheduleUpdate(count/2, liveupdate.Config{Prog: prog, Setup: app.SetupHost}); err != nil {
		t.Fatal(err)
	}
	if !sh.FastPath() {
		t.Error("FastPath()=false with an update armed")
	}
	gen := pktgen.NewGenerator(app.Traffic)
	rep, err := sh.RunLoad(gen.Next, count, 50e6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UpdatesCompleted != 1 {
		t.Fatalf("update completed %d, want 1 (%q)", rep.UpdatesCompleted, rep.UpdateFailure)
	}
	if rep.Received != rep.Sent {
		t.Errorf("received %d of %d across the update", rep.Received, rep.Sent)
	}
	if engine, why := sh.Serving(); !sh.FastPath() || why != "" {
		t.Errorf("after the swap %s serves (%q), want the compiled fast path", engine, why)
	}
	if rep, err = sh.RunLoad(gen.Next, count, 50e6); err != nil || rep.Received != count {
		t.Errorf("run after the swap: received %d of %d, err %v", rep.Received, count, err)
	}
}

// TestFastPathMultiQueue: the FastPath switch reaches the RSS fleet —
// every replica runs compiled — and the multi-queue ledger matches the
// interpreted fleet on the same traffic.
func TestFastPathMultiQueue(t *testing.T) {
	const count = 1600
	app := apps.Toy()
	run := func(fastpath bool) (*Shell, Report) {
		sh := newShell(t, app, core.Options{}, ShellConfig{
			Queues: 4, FastPath: fastpath,
			Sim: hwsim.Config{InputQueuePackets: 64},
		})
		gen := pktgen.NewGenerator(app.Traffic)
		rep, err := sh.RunLoad(gen.Next, count, 100e6)
		if err != nil {
			t.Fatal(err)
		}
		return sh, rep
	}
	fastSh, fr := run(true)
	slowSh, sr := run(false)
	if !fastSh.FastPath() {
		t.Fatal("FastPath()=false on an eligible multi-queue config")
	}
	if slowSh.FastPath() {
		t.Fatal("FastPath()=true without the switch")
	}
	if fr.QueueCount != 4 {
		t.Fatalf("queue count %d, want 4", fr.QueueCount)
	}
	if fr.Sent != sr.Sent || fr.Received != sr.Received || fr.Lost != sr.Lost {
		t.Errorf("ledger sent/received/lost %d/%d/%d (fast) vs %d/%d/%d (interp)",
			fr.Sent, fr.Received, fr.Lost, sr.Sent, sr.Received, sr.Lost)
	}
	if !reflect.DeepEqual(sr.Actions, fr.Actions) {
		t.Errorf("verdict histogram %v (interp) vs %v (fast)", sr.Actions, fr.Actions)
	}
	if err := conformance.CompareMaps(slowSh.Maps(), fastSh.Maps()); err != nil {
		t.Error(err)
	}
}

// TestMaxLatencyIsPerRun: Report.MaxLatencyNs is the run's own worst
// case on every engine. A shell overloaded by one run (600 Mpps queues
// frames for microseconds) and then driven gently must report the gentle
// run's maximum — the interpreter shell's figure — not the high-water
// mark the engine remembers from the overload.
func TestMaxLatencyIsPerRun(t *testing.T) {
	const count = 4096
	app := apps.Firewall()
	secondRun := func(cfg ShellConfig) Report {
		sh := newShell(t, app, core.Options{}, cfg)
		gen := pktgen.NewGenerator(app.Traffic)
		first, err := sh.RunLoad(gen.Next, count, 600e6)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sh.RunLoad(gen.Next, count, 10e6)
		if err != nil {
			t.Fatal(err)
		}
		if first.MaxLatencyNs <= rep.MaxLatencyNs {
			t.Fatalf("the overload run (max %.0f ns) did not queue deeper than the gentle one (max %.0f ns)",
				first.MaxLatencyNs, rep.MaxLatencyNs)
		}
		return rep
	}
	for _, queues := range []int{1, 4} {
		want := secondRun(ShellConfig{Queues: queues})
		got := secondRun(ShellConfig{Queues: queues, FastPath: true})
		if got.MaxLatencyNs != want.MaxLatencyNs || got.MaxLatencyNs != 820 {
			t.Errorf("%d queue(s): compiled second run max %.0f ns, interpreter %.0f ns, want 820",
				queues, got.MaxLatencyNs, want.MaxLatencyNs)
		}
		if got.AvgLatencyNs != 820 {
			t.Errorf("%d queue(s): compiled second run avg %.0f ns, want 820", queues, got.AvgLatencyNs)
		}
	}
}
