// Chaos harness: every evaluation app under every fault class at once.
// The properties proved here are the robustness contract of the design:
// the NIC shell never errors or panics under fault injection, every
// verdict stays a legal XDP action, every fault is counted, the same
// seed reproduces the same campaign bit for bit, and with faults
// disabled the pipeline remains bit-for-bit equivalent to the reference
// VM.
package faults_test

import (
	"bytes"
	"reflect"
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/core"
	"ehdl/internal/ebpf"
	"ehdl/internal/faults"
	"ehdl/internal/hwsim"
	"ehdl/internal/nic"
	"ehdl/internal/pktgen"
	"ehdl/internal/vm"
)

func chaosApps() []*apps.App {
	return append(apps.All(), apps.Toy(), apps.LeakyBucket())
}

// chaosRun drives one campaign through the NIC shell and returns the
// traffic report plus the injector's final counters.
func chaosRun(t *testing.T, app *apps.App, fc faults.Config, packets int) (nic.Report, faults.Counters, hwsim.Stats) {
	t.Helper()
	prog, err := app.Program()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.Compile(prog, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := nic.ShellConfig{Faults: fc}
	// A generous watchdog: it must never fire on survivable fault
	// campaigns, but it bounds the damage if injection ever wedges the
	// pipeline.
	cfg.Sim.WatchdogCycles = 100000
	sh, err := nic.New(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Setup(sh.Maps()); err != nil {
		t.Fatal(err)
	}
	gen := pktgen.NewGenerator(app.Traffic)
	rep, err := sh.RunLoad(gen.Next, packets, sh.LineRateMpps(64)*1e6)
	if err != nil {
		t.Fatalf("%s: campaign errored instead of degrading: %v", app.Name, err)
	}
	var ctr faults.Counters
	if sh.Injector() != nil {
		ctr = sh.Injector().Counters()
	}
	return rep, ctr, sh.Stats()
}

func checkLegalActions(t *testing.T, name string, rep nic.Report) {
	t.Helper()
	rep.Actions.Each(func(action ebpf.XDPAction, n uint64) {
		if action > ebpf.XDPRedirect {
			t.Errorf("%s: %d packets retired with illegal verdict %d", name, n, action)
		}
	})
}

func TestChaosSmokeEveryApp(t *testing.T) {
	// The always-on smoke slice of the campaign: every app, full chaos
	// profile, enough packets for every class to fire.
	for _, app := range chaosApps() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			rep, ctr, _ := chaosRun(t, app, faults.Profile(1.0, 11), 1500)
			checkLegalActions(t, app.Name, rep)
			if rep.Received == 0 {
				t.Fatal("pipeline answered nothing under chaos")
			}
			if ctr.Total() == 0 {
				t.Fatal("chaos profile injected no faults")
			}
			// Every fault the injector recorded is visible in the report:
			// pipeline faults, damaged frames and ingress bursts add up.
			if got := rep.FaultsInjected + rep.MalformedSent + rep.OverflowBursts; got != ctr.Total() {
				t.Errorf("report accounts %d faults, injector recorded %d (%s)", got, ctr.Total(), ctr)
			}
			if rep.WatchdogTrips != 0 {
				t.Errorf("watchdog tripped %d times on a survivable campaign", rep.WatchdogTrips)
			}
		})
	}
}

func TestChaosCampaignIntensitySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos campaign sweep skipped in short mode")
	}
	for _, intensity := range []float64{0.25, 0.5, 1.0} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, app := range chaosApps() {
				rep, ctr, _ := chaosRun(t, app, faults.Profile(intensity, seed), 2500)
				checkLegalActions(t, app.Name, rep)
				if rep.Received == 0 {
					t.Errorf("%s: intensity %.2f seed %d: pipeline answered nothing",
						app.Name, intensity, seed)
				}
				if got := rep.FaultsInjected + rep.MalformedSent + rep.OverflowBursts; got != ctr.Total() {
					t.Errorf("%s: intensity %.2f seed %d: %d faults reported, %d recorded",
						app.Name, intensity, seed, got, ctr.Total())
				}
			}
		}
	}
}

func TestChaosSameSeedReproducesBitForBit(t *testing.T) {
	// The acceptance property of the subsystem: an identical seed
	// reproduces identical fault sites, so the final simulator stats,
	// traffic report and per-class fault counters all match exactly.
	for _, app := range []*apps.App{apps.Firewall(), apps.DNAT()} {
		rep1, ctr1, st1 := chaosRun(t, app, faults.Profile(1.0, 99), 2000)
		rep2, ctr2, st2 := chaosRun(t, app, faults.Profile(1.0, 99), 2000)
		if !reflect.DeepEqual(rep1, rep2) {
			t.Errorf("%s: reports diverged across same-seed runs:\n%+v\n%+v", app.Name, rep1, rep2)
		}
		if ctr1 != ctr2 {
			t.Errorf("%s: fault counters diverged: %s vs %s", app.Name, ctr1, ctr2)
		}
		if !reflect.DeepEqual(st1, st2) {
			t.Errorf("%s: simulator stats diverged:\n%+v\n%+v", app.Name, st1, st2)
		}
		// And a different seed takes a different trajectory (sanity that
		// the comparison above can fail at all).
		rep3, _, _ := chaosRun(t, app, faults.Profile(1.0, 100), 2000)
		if reflect.DeepEqual(rep1, rep3) {
			t.Errorf("%s: different seeds produced identical reports", app.Name)
		}
	}
}

func TestChaosDisabledIsBitForBitEquivalent(t *testing.T) {
	// With every fault rate zero the injector must be inert end to end:
	// the pipeline stays bit-for-bit equivalent to the reference VM in
	// verdicts, redirect targets and output bytes.
	for _, app := range chaosApps() {
		prog, err := app.Program()
		if err != nil {
			t.Fatal(err)
		}
		refEnv, err := vm.NewEnv(prog)
		if err != nil {
			t.Fatal(err)
		}
		refEnv.Now = func() uint64 { return 0 }
		if err := app.Setup(refEnv.Maps); err != nil {
			t.Fatal(err)
		}
		machine, err := vm.New(prog, refEnv)
		if err != nil {
			t.Fatal(err)
		}
		cfg := app.Traffic
		cfg.Seed = 31
		packets := pktgen.NewGenerator(cfg).Batch(400)

		type refOut struct {
			action ebpf.XDPAction
			data   []byte
		}
		refs := make([]refOut, len(packets))
		for i, data := range packets {
			pkt := vm.NewPacket(data)
			res, err := machine.Run(pkt)
			if err != nil {
				t.Fatalf("%s: reference packet %d: %v", app.Name, i, err)
			}
			refs[i] = refOut{action: res.Action, data: append([]byte(nil), pkt.Bytes()...)}
		}

		pl, err := core.Compile(prog, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Disabled faults, but the whole plumbing configured: a zero-rate
		// config and an armed watchdog must not perturb execution.
		shCfg := nic.ShellConfig{Faults: faults.Config{Seed: 5}}
		shCfg.Sim.WatchdogCycles = 100000
		sh, err := nic.New(pl, shCfg)
		if err != nil {
			t.Fatal(err)
		}
		if sh.Injector() != nil {
			t.Fatalf("%s: zero-rate config built an injector", app.Name)
		}
		if err := app.Setup(sh.Maps()); err != nil {
			t.Fatal(err)
		}
		// The shell hands its engine exactly this simulator config when
		// no injector was built; drive one directly for per-packet bytes.
		shCfg.Sim.ClockHz = 250e6
		sim, err := hwsim.New(pl, shCfg.Sim)
		if err != nil {
			t.Fatal(err)
		}
		if err := app.Setup(sim.Maps()); err != nil {
			t.Fatal(err)
		}
		sim.KeepData(true)
		sim.SetClock(func() uint64 { return 0 })
		var results []hwsim.Result
		sim.OnComplete(func(r hwsim.Result) { results = append(results, r) })
		for _, data := range packets {
			for !sim.InputFree() {
				if err := sim.Step(); err != nil {
					t.Fatal(err)
				}
			}
			sim.Inject(data)
			if err := sim.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if err := sim.RunToCompletion(1 << 22); err != nil {
			t.Fatal(err)
		}
		if len(results) != len(packets) {
			t.Fatalf("%s: completed %d of %d", app.Name, len(results), len(packets))
		}
		for _, r := range results {
			if r.Action != refs[r.Seq].action {
				t.Fatalf("%s: packet %d action %v, reference %v", app.Name, r.Seq, r.Action, refs[r.Seq].action)
			}
			if !bytes.Equal(r.Data, refs[r.Seq].data) {
				t.Fatalf("%s: packet %d bytes diverged with faults disabled", app.Name, r.Seq)
			}
		}
		// And through the shell's own loop: same verdicts, and none of
		// the resilience counters move on either engine instance.
		sh.PinClock(0)
		i := 0
		rep, err := sh.RunLoad(func() []byte { i++; return packets[i-1] }, len(packets), 50e6)
		if err != nil {
			t.Fatal(err)
		}
		var want hwsim.Verdicts
		for _, ref := range refs {
			want.Add(ref.action, 1)
		}
		if !reflect.DeepEqual(rep.Actions, want) {
			t.Errorf("%s: shell verdict histogram %v with faults disabled, reference %v", app.Name, rep.Actions, want)
		}
		for _, st := range []hwsim.Stats{sim.Stats(), sh.Stats()} {
			if st.Completed != uint64(len(packets)) || st.FaultsInjected != 0 || st.MalformedDropped != 0 || st.AbortedFaults != 0 || st.WatchdogTrips != 0 {
				t.Errorf("%s: resilience counters moved with faults disabled: %+v", app.Name, st)
			}
		}
	}
}

func TestChaosPerClassEveryApp(t *testing.T) {
	// Each fault class alone, against every app: isolates a regression to
	// the class that caused it.
	if testing.Short() {
		t.Skip("per-class chaos matrix skipped in short mode")
	}
	rates := map[faults.Class]float64{
		faults.SEURegister:      0.02,
		faults.SEUStack:         0.02,
		faults.SEUPacket:        0.02,
		faults.SEUMapEntry:      0.01,
		faults.MalformedTraffic: 0.2,
		faults.QueueOverflow:    0.002,
		faults.FlushStorm:       0.01,
	}
	for _, class := range faults.Classes() {
		for _, app := range chaosApps() {
			rep, ctr, _ := chaosRun(t, app, faults.Single(class, rates[class], 17), 1200)
			checkLegalActions(t, app.Name, rep)
			if rep.Received == 0 {
				t.Errorf("%s/%s: pipeline answered nothing", app.Name, class)
			}
			for _, other := range faults.Classes() {
				if other != class && ctr.ByClass[other] != 0 {
					t.Errorf("%s/%s: class %s fired in a single-class campaign", app.Name, class, other)
				}
			}
			// Flush storms need a flush-protected map; the other classes
			// must actually fire everywhere at these rates.
			if class != faults.FlushStorm && ctr.ByClass[class] == 0 {
				t.Errorf("%s/%s: class never fired", app.Name, class)
			}
		}
	}
}
