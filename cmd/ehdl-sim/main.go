// Command ehdl-sim runs a compiled pipeline inside the simulated NIC
// shell under generated traffic, printing the measurements a testbed
// traffic generator would report.
//
// Usage:
//
//	ehdl-sim -app firewall -packets 20000 -rate 148.8
//	ehdl-sim -app leakybucket -replay caida
//	ehdl-sim -app dnat -flows 8 -policy stall
//	ehdl-sim -app firewall -queues 4 -rate 600
//	ehdl-sim -app firewall -trace out.jsonl -metrics
//	ehdl-sim -app router -cpuprofile cpu.out -pprof localhost:6060
//	ehdl-sim -app firewall -update-prog leakybucket -update-after 5000
//	ehdl-sim -tenants firewall:0.5,toy:0.25,router:0.25 -packets 20000
//
// Exit status: 0 on a clean run, 1 on a usage or configuration error,
// 2 when the pipeline declared itself unrecoverable, a scheduled live
// update was rolled back, or a -tenants admission was rejected by the
// hdl resource-budget gate.
package main

import (
	"errors"
	flagpkg "flag"
	"fmt"
	"os"

	"ehdl/internal/apps"
	"ehdl/internal/core"
	"ehdl/internal/ebpf"
	"ehdl/internal/faults"
	"ehdl/internal/hwsim"
	"ehdl/internal/liveupdate"
	"ehdl/internal/nic"
	"ehdl/internal/obs"
	"ehdl/internal/pktgen"
	"ehdl/internal/protect"
	"ehdl/internal/tenant"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	flag := flagpkg.NewFlagSet("ehdl-sim", flagpkg.ContinueOnError)
	var (
		appName   = flag.String("app", "firewall", "application to run")
		packets   = flag.Int("packets", 20000, "packets to offer")
		rate      = flag.Float64("rate", 0, "offered rate in Mpps (0: line rate for the packet size)")
		flows     = flag.Int("flows", 0, "flow count (0: application default)")
		pktLen    = flag.Int("pktlen", 0, "packet size (0: application default)")
		policy    = flag.String("policy", "flush", "RAW hazard policy: flush|stall")
		queues    = flag.Int("queues", 1, "pipeline replicas behind the RSS dispatcher (1: classic single queue)")
		fastPath  = flag.Bool("fastpath", false, "serve traffic from the compiled host fast path (the cycle-accurate interpreter remains the oracle)")
		batch     = flag.Int("batch", 0, "RSS dispatch batch size in packets (0: default 64; multi-queue only)")
		replay    = flag.String("replay", "", "replay a synthetic trace profile instead: caida|mawi")
		intensity = flag.Float64("faults", 0, "fault-injection intensity in (0,1]: SEUs, malformed frames, overflow bursts, flush storms")
		faultSeed = flag.Int64("fault-seed", 1, "seed of the fault campaign (same seed: same fault sites)")
		watchdog  = flag.Int("watchdog", 0, "livelock watchdog threshold in cycles (0: disabled)")
		protLevel = flag.String("protect", "none", "map-memory protection: none|parity|ecc (non-none also arms scrubbing and drain-and-restart recovery)")
		scrubEach = flag.Int("scrub-interval", 0, "scrubber budget in cycles per checked word (0: default 8)")
		maxRecov  = flag.Int("max-recoveries", 0, "drain-and-restart budget between clean scrub passes (0: default 8, negative: unbounded)")
		recJitter = flag.Int64("recovery-jitter", 0, "seed of the recovery-backoff jitter (0: exact deterministic schedule)")

		tenantsSpec = flag.String("tenants", "", "multi-tenant mode: comma-separated app:share list (e.g. firewall:0.5,toy:0.5); VLANs auto-assigned from 100")
		tenantBand  = flag.Float64("band", 0, "multi-tenant admission ceiling in percent of device utilisation (0: default 70)")

		updProg  = flag.String("update-prog", "", "hot-swap to this application mid-run (requires -update-after)")
		updAfter = flag.Int("update-after", -1, "arm the live update after this many offered packets (requires -update-prog)")

		tracePath = flag.String("trace", "", "write the cycle-level event trace to this file (JSONL)")
		traceText = flag.Bool("trace-text", false, "write the trace in compact text instead of JSONL")
		metrics   = flag.Bool("metrics", false, "collect the metrics registry and render it after the run")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address for live profiling")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file when the run stops")
		rtTrace   = flag.String("runtime-trace", "", "write a runtime/trace execution trace to this file")
	)
	if err := flag.Parse(args); err != nil {
		return 1
	}

	// Flag-combination validation: everything rejected here is a usage
	// error (exit 1) before any work starts.
	switch {
	case flag.NArg() > 0:
		return usage(fmt.Errorf("unexpected arguments %q", flag.Args()))
	case *packets <= 0:
		return usage(fmt.Errorf("-packets must be positive, got %d", *packets))
	case *rate < 0:
		return usage(fmt.Errorf("-rate must be >= 0, got %g", *rate))
	case *intensity < 0 || *intensity > 1:
		return usage(fmt.Errorf("-faults must be in [0,1], got %g", *intensity))
	case *queues < 1:
		return usage(fmt.Errorf("-queues must be >= 1, got %d", *queues))
	case *batch < 0:
		return usage(fmt.Errorf("-batch must be >= 0, got %d", *batch))
	case *batch > 0 && *queues == 1:
		return usage(fmt.Errorf("-batch only applies to multi-queue runs (-queues >= 2)"))
	case *replay != "" && (*flows > 0 || *pktLen > 0):
		return usage(fmt.Errorf("-replay fixes the traffic profile; -flows/-pktlen only apply to generated traffic"))
	case *updProg != "" && *updAfter < 0:
		return usage(fmt.Errorf("-update-prog requires -update-after"))
	case *updProg == "" && *updAfter >= 0:
		return usage(fmt.Errorf("-update-after requires -update-prog"))
	case *updProg != "" && *updAfter >= *packets:
		return usage(fmt.Errorf("-update-after %d never triggers within -packets %d", *updAfter, *packets))
	case *tenantsSpec != "" && *updProg != "":
		return usage(fmt.Errorf("-tenants runs per-tenant pipelines; -update-prog drives the single-pipeline shell"))
	case *tenantsSpec != "" && *queues > 1:
		return usage(fmt.Errorf("-tenants and -queues are different scale-out axes; pick one"))
	case *tenantsSpec != "" && *replay != "":
		return usage(fmt.Errorf("-tenants generates each tenant's own traffic; -replay is single-pipeline only"))
	case *tenantsSpec != "" && (*flows > 0 || *pktLen > 0):
		return usage(fmt.Errorf("-flows/-pktlen shape one app's traffic; tenant traffic comes from each tenant's app profile"))
	case *tenantsSpec == "" && *tenantBand != 0:
		return usage(fmt.Errorf("-band only applies with -tenants"))
	case *tenantBand < 0 || *tenantBand > 100:
		return usage(fmt.Errorf("-band must be in (0,100], got %g", *tenantBand))

	case *traceText && *tracePath == "":
		return usage(fmt.Errorf("-trace-text selects the format of -trace; give a trace file"))
	case *fastPath && *tenantsSpec != "":
		return usage(fmt.Errorf("-tenants runs per-tenant interpreter pipelines; -fastpath drives the single- or multi-queue shell"))
	}

	prof := obs.ProfileConfig{
		CPUFile:   *cpuProf,
		MemFile:   *memProf,
		TraceFile: *rtTrace,
		HTTPAddr:  *pprofAddr,
	}
	if prof.Enabled() {
		stop, addr, err := obs.StartProfiles(prof)
		if err != nil {
			return fail(err)
		}
		if addr != "" {
			fmt.Fprintf(os.Stderr, "pprof: serving on http://%s/debug/pprof/\n", addr)
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
	}
	var tr *obs.Tracer
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		var sink obs.Sink
		if *traceText {
			sink = obs.NewTextSink(f)
		} else {
			sink = obs.NewJSONLSink(f)
		}
		tr = obs.NewTracer(0, sink)
		defer func() {
			if err := tr.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			fmt.Printf("\ntrace: %d events written to %s\n", tr.Emitted(), *tracePath)
		}()
	}

	level, err := protect.ParseLevel(*protLevel)
	if err != nil {
		return fail(err)
	}

	if *tenantsSpec != "" {
		return runTenants(tenantRun{
			spec:      *tenantsSpec,
			band:      *tenantBand,
			packets:   *packets,
			rate:      *rate,
			policy:    *policy,
			intensity: *intensity,
			faultSeed: *faultSeed,
			watchdog:  *watchdog,
			level:     level,
			scrubEach: *scrubEach,
			maxRecov:  *maxRecov,
			recJitter: *recJitter,
			trace:     tr,
			metrics:   reg,
		})
	}

	app, ok := apps.ByName(*appName)
	if !ok {
		return fail(fmt.Errorf("unknown application %q", *appName))
	}
	prog, err := app.Program()
	if err != nil {
		return fail(err)
	}
	pl, err := core.Compile(prog, core.Options{})
	if err != nil {
		return fail(err)
	}

	cfg := nic.ShellConfig{Queues: *queues, Batch: *batch, FastPath: *fastPath}
	if *policy == "stall" {
		cfg.Sim.Policy = hwsim.PolicyStall
	}
	if *intensity > 0 {
		cfg.Faults = faults.Profile(*intensity, *faultSeed)
	}
	cfg.Sim.WatchdogCycles = *watchdog
	cfg.Sim.Protection = level
	cfg.Sim.ScrubCyclesPerWord = *scrubEach
	cfg.Sim.MaxRecoveries = *maxRecov
	cfg.Sim.RecoveryJitterSeed = *recJitter
	cfg.Sim.Metrics = reg
	cfg.Sim.Trace = tr

	sh, err := nic.New(pl, cfg)
	if err != nil {
		return fail(err)
	}
	if err := app.Setup(sh.Maps()); err != nil {
		return fail(err)
	}

	if *updProg != "" {
		upd, ok := apps.ByName(*updProg)
		if !ok {
			return usage(fmt.Errorf("unknown -update-prog %q", *updProg))
		}
		uprog, err := upd.Program()
		if err != nil {
			return fail(err)
		}
		ucfg := liveupdate.Config{Prog: uprog, Setup: upd.SetupHost, Trace: tr, Metrics: reg}
		if err := sh.ScheduleUpdate(*updAfter, ucfg); err != nil {
			return fail(err)
		}
	}

	// The shell is the one source for which engine serves and why. The
	// library falls back silently, but a user who asked for -fastpath
	// explicitly gets told why the request cannot be honoured instead.
	engine, why := sh.Serving()
	if *fastPath && why != "" {
		return usage(fmt.Errorf("-fastpath cannot be honoured: %s keeps the %s serving", why, engine))
	}

	var next func() []byte
	frameLen := 64
	switch *replay {
	case "":
		tcfg := app.Traffic
		if *flows > 0 {
			tcfg.Flows = *flows
		}
		if *pktLen > 0 {
			tcfg.PacketLen = *pktLen
		}
		frameLen = tcfg.PacketLen
		gen := pktgen.NewGenerator(tcfg)
		next = gen.Next
	case "caida":
		tr := pktgen.NewTrace(pktgen.CAIDAProfile())
		frameLen = pktgen.CAIDAProfile().MeanPacketLen
		next = tr.Next
	case "mawi":
		tr := pktgen.NewTrace(pktgen.MAWIProfile())
		frameLen = pktgen.MAWIProfile().MeanPacketLen
		next = tr.Next
	default:
		return fail(fmt.Errorf("unknown replay profile %q", *replay))
	}

	offered := *rate * 1e6
	if offered <= 0 {
		offered = sh.LineRateMpps(frameLen) * 1e6
	}

	if why != "" {
		why = ", " + why
	}
	fmt.Printf("running %s: %d stages, %d packets at %.1f Mpps offered (%s)%s\n",
		app.Name, pl.NumStages(), *packets, offered/1e6, engine, why)
	rep, err := sh.RunLoad(next, *packets, offered)
	if errors.Is(err, hwsim.ErrRecoveryExhausted) {
		// The typed give-up of the recovery subsystem: the store kept
		// corrupting faster than drain-and-restart could heal it. A
		// distinct exit status lets campaign scripts tell "pipeline
		// declared unrecoverable" from configuration errors.
		fmt.Fprintf(os.Stderr, "unrecoverable: %v\n", err)
		return 2
	}
	if err != nil {
		return fail(err)
	}

	fmt.Printf("\nresults:\n")
	fmt.Printf("  offered:   %8.2f Mpps (%.1f Gbps)\n", rep.OfferedMpps, rep.OfferedGbps)
	fmt.Printf("  achieved:  %8.2f Mpps (%.1f Gbps)\n", rep.AchievedMpps, rep.AchievedGbps)
	fmt.Printf("  received:  %d of %d (lost at input: %d)\n", rep.Received, rep.Sent, rep.Lost)
	fmt.Printf("  latency:   avg %.0f ns, max %.0f ns\n", rep.AvgLatencyNs, rep.MaxLatencyNs)
	fmt.Printf("  flushes:   %d (%.0f/s)\n", rep.Flushes, rep.FlushesPerS)
	if rep.QueueCount > 1 {
		fmt.Printf("  queues:    %d replicas, %d fallback steers, %d merge conflicts\n",
			rep.QueueCount, rep.SteerFallbacks, rep.MergeConflicts)
		for _, qr := range rep.PerQueue {
			fmt.Printf("    q%-2d steered %6d  received %6d  lost %4d  %8.2f Mpps\n",
				qr.Queue, qr.Steered, qr.Received, qr.Lost, qr.AchievedMpps)
		}
	}
	if inj := sh.Injector(); inj != nil {
		fmt.Printf("  faults:    %s\n", inj.Counters())
		fmt.Printf("             pipeline faults %d, malformed sent %d / hw-dropped %d\n",
			rep.FaultsInjected, rep.MalformedSent, rep.MalformedDropped)
		fmt.Printf("             overflow bursts %d (episodes %d), watchdog trips %d\n",
			rep.OverflowBursts, rep.QueueOverflows, rep.WatchdogTrips)
	}
	if *updProg != "" {
		fmt.Printf("  update:    %s -> %s after %d packets: stage %s\n",
			app.Name, *updProg, *updAfter, rep.UpdateStage)
		fmt.Printf("             migrated %d entries, canaried %d (%d diverged)\n",
			rep.MigratedEntries, rep.CanariedPackets, rep.CanaryDivergences)
		fmt.Printf("             held %d over a %d-cycle cutover\n", rep.HeldPackets, rep.CutoverTicks)
	}
	if level != protect.LevelNone {
		fmt.Printf("  protect:   %s, %d words corrected, %d uncorrectable\n",
			level, rep.CorrectedWords, rep.UncorrectableWords)
		fmt.Printf("             scrub passes %d, checkpoints %d, recoveries %d (%d frames drained, %d backoff cycles)\n",
			rep.ScrubPasses, rep.CheckpointsTaken, rep.Recoveries, rep.RecoveryAborted, rep.RecoveryBackoffCycles)
	}
	fmt.Printf("  verdicts:\n")
	for action := ebpf.XDPAborted; action <= ebpf.XDPRedirect; action++ {
		if count := rep.Actions[action]; count > 0 {
			fmt.Printf("    %-12v %d\n", action, count)
		}
	}

	fmt.Printf("\nhost-visible map state:\n")
	for id := 0; id < sh.Maps().Len(); id++ {
		m, _ := sh.Maps().ByID(id)
		fmt.Printf("  %-10s %d entries\n", m.Spec().Name, m.Len())
	}

	if reg != nil {
		fmt.Printf("\nmetrics registry:\n")
		if err := reg.Render(os.Stdout); err != nil {
			return fail(err)
		}
	}

	if rep.UpdatesRolledBack > 0 {
		// The old pipeline kept serving (the run above is valid), but the
		// requested swap did not happen: campaign scripts need to know.
		fmt.Fprintf(os.Stderr, "update rolled back: %s\n", rep.UpdateFailure)
		return 2
	}
	return 0
}

// tenantRun carries the flag values the multi-tenant mode consumes.
type tenantRun struct {
	spec      string
	band      float64
	packets   int
	rate      float64
	policy    string
	intensity float64
	faultSeed int64
	watchdog  int
	level     protect.Level
	scrubEach int
	maxRecov  int
	recJitter int64
	trace     *obs.Tracer
	metrics   *obs.Registry
}

// runTenants is the -tenants mode: one simulated device, M tenant
// pipelines behind the VLAN classifier, admission priced against the
// FPGA budget. An admission rejection is exit 2 — the device is fine,
// the requested tenant set just does not fit the fabric.
func runTenants(r tenantRun) int {
	shell := nic.ShellConfig{}
	if r.policy == "stall" {
		shell.Sim.Policy = hwsim.PolicyStall
	}
	shell.Sim.WatchdogCycles = r.watchdog
	shell.Sim.Protection = r.level
	shell.Sim.ScrubCyclesPerWord = r.scrubEach
	shell.Sim.MaxRecoveries = r.maxRecov
	shell.Sim.RecoveryJitterSeed = r.recJitter

	specs, err := tenant.ParseSpecList(r.spec, shell)
	if err != nil {
		return usage(err)
	}
	dcfg := tenant.DeviceConfig{
		UtilisationBandPct: r.band,
		Seed:               r.faultSeed,
		Trace:              r.trace,
		Metrics:            r.metrics,
	}
	if r.intensity > 0 {
		dcfg.Chaos = faults.Profile(r.intensity, r.faultSeed)
	}
	dev := tenant.NewDevice(dcfg)
	for _, sp := range specs {
		tn, err := dev.AdmitTenant(sp)
		if err != nil {
			var ae *tenant.AdmissionError
			if errors.As(err, &ae) {
				// The budget gate spoke: report the priced shortfall with a
				// distinct exit status so campaign scripts can tell "does
				// not fit" from configuration mistakes.
				fmt.Fprintf(os.Stderr, "admission rejected: %v\n", ae)
				return 2
			}
			return fail(err)
		}
		fmt.Printf("admitted %-16s share %.2f vlan %d  est %d LUTs %d BRAM  util %.2f%%\n",
			tn.Spec.Name, tn.Spec.Share, tn.Spec.VLAN, tn.Est.LUTs, tn.Est.BRAM36, dev.Utilisation())
	}

	offered := r.rate * 1e6
	if offered <= 0 {
		offered = 148.8e6 // 64B line rate at 100G
	}
	mux := tenant.NewTrafficMux(specs, r.faultSeed)
	fmt.Printf("running %d tenants: %d packets at %.1f Mpps offered, device at %.2f%% of the fabric\n",
		len(specs), r.packets, offered/1e6, dev.Utilisation())
	rep, err := dev.RunLoad(mux.Next, r.packets, offered)
	if err != nil {
		return fail(err)
	}

	fmt.Printf("\nresults:\n")
	fmt.Printf("  received:  %d of %d (lost %d, throttled %d, quarantined %d, tenant-down %d)\n",
		rep.Received, rep.Sent, rep.Lost, rep.Throttled, rep.Quarantined, rep.TenantDownLoss)
	fmt.Printf("  ledger:    accounted=%v\n", rep.Accounted())
	fmt.Printf("\nper-tenant:\n")
	for _, sl := range rep.PerTenant {
		fmt.Printf("  %-16s vlan %-4d steered %6d admitted %6d throttled %5d received %6d lost %4d down %4d  %7.2f Mpps\n",
			sl.Name, sl.VLAN, sl.Steered, sl.Admitted, sl.Throttled, sl.Received, sl.Lost, sl.DownLoss, sl.AchievedMpps)
		if sl.FaultsInjected > 0 || sl.Recoveries > 0 {
			fmt.Printf("  %-16s faults %d, recoveries %d, watchdog trips %d\n",
				"", sl.FaultsInjected, sl.Recoveries, sl.WatchdogTrips)
		}
	}
	for _, tn := range dev.Tenants() {
		if tn.Dead() {
			fmt.Printf("  %-16s DEAD: %s\n", tn.Spec.Name, tn.DeathCause())
		}
	}
	if r.metrics != nil {
		fmt.Printf("\nmetrics registry:\n")
		if err := r.metrics.Render(os.Stdout); err != nil {
			return fail(err)
		}
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, err)
	return 1
}

func usage(err error) int {
	fmt.Fprintf(os.Stderr, "usage error: %v (see -h)\n", err)
	return 1
}
