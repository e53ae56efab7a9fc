package main

import (
	"errors"
	"flag"
	"fmt"
	"io"

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
)

// simCmd runs a compiled pipeline inside the simulated NIC shell under
// generated traffic, printing the measurements a testbed traffic
// generator would report. Multi-tenant devices run under fleet
// (-devices 1 -tenants …), which serves the same tenant set the same
// way.
//
//	ehdl sim -app firewall -packets 20000 -rate 148.8
//	ehdl sim -app leakybucket -replay caida
//	ehdl sim -app dnat -flows 8 -policy stall
//	ehdl sim -app firewall -queues 4 -rate 600
//	ehdl sim -app firewall -trace out.jsonl -metrics
//	ehdl sim -app router -cpuprofile cpu.out -pprof localhost:6060
//	ehdl sim -app firewall -update-prog leakybucket -update-after 5000
//
// Exit status: 0 on a clean run, 1 on a usage or configuration error,
// 2 when the pipeline declared itself unrecoverable or a scheduled live
// update was rolled back.
type simCmd struct {
	prog      loader
	packets   int
	rate      float64
	flows     int
	pktLen    int
	policy    string
	queues    int
	fastPath  bool
	batch     int
	replay    string
	intensity float64
	seed      int64
	watchdog  int
	protLevel string
	scrubEach int
	maxRecov  int
	recJitter int64
	updProg   string
	updAfter  int
	tracePath string
	metrics   bool
	prof      profiling
}

func (c *simCmd) declare(fs *flag.FlagSet) {
	c.prog.declare(fs, "firewall", false)
	fs.IntVar(&c.packets, "packets", 20000, "packets to offer")
	fs.Float64Var(&c.rate, "rate", 0, "offered rate in Mpps (0: line rate for the packet size)")
	fs.IntVar(&c.flows, "flows", 0, "flow count (0: application default)")
	fs.IntVar(&c.pktLen, "pktlen", 0, "packet size (0: application default)")
	fs.StringVar(&c.policy, "policy", "flush", "RAW hazard policy: flush|stall")
	fs.IntVar(&c.queues, "queues", 1, "pipeline replicas behind the RSS dispatcher (1: classic single queue)")
	fs.BoolVar(&c.fastPath, "fastpath", false, "serve traffic from the compiled host fast path (the cycle-accurate interpreter remains the oracle)")
	fs.IntVar(&c.batch, "batch", 0, "RSS dispatch batch size in packets (0: default 64; multi-queue only)")
	fs.StringVar(&c.replay, "replay", "", "replay a synthetic trace profile instead: caida|mawi")
	fs.Float64Var(&c.intensity, "faults", 0, "fault-injection intensity in (0,1]: SEUs, malformed frames, overflow bursts, flush storms")
	fs.Int64Var(&c.seed, "seed", 1, "seed of the fault campaign (same seed: same fault sites)")
	fs.IntVar(&c.watchdog, "watchdog", 0, "livelock watchdog threshold in cycles (0: disabled)")
	fs.StringVar(&c.protLevel, "protect", "none", "map-memory protection: none|parity|ecc (non-none also arms scrubbing and drain-and-restart recovery)")
	fs.IntVar(&c.scrubEach, "scrub-interval", 0, "scrubber budget in cycles per checked word (0: default 8)")
	fs.IntVar(&c.maxRecov, "max-recoveries", 0, "drain-and-restart budget between clean scrub passes (0: default 8, negative: unbounded)")
	fs.Int64Var(&c.recJitter, "recovery-jitter", 0, "seed of the recovery-backoff jitter (0: exact deterministic schedule)")
	fs.StringVar(&c.updProg, "update-prog", "", "hot-swap to this application mid-run (requires -update-after)")
	fs.IntVar(&c.updAfter, "update-after", -1, "arm the live update after this many offered packets (requires -update-prog)")
	fs.StringVar(&c.tracePath, "trace", "", "write the cycle-level event trace to this file (JSONL; compact text if the name ends in .txt)")
	fs.BoolVar(&c.metrics, "metrics", false, "collect the metrics registry and render it after the run")
	c.prof.declare(fs)
}

func (c *simCmd) run(args []string, stdout, stderr io.Writer) int {
	// Flag-combination validation: everything rejected here is a usage
	// error (exit 1) before any work starts.
	switch {
	case len(args) > 0:
		return usage(stderr, fmt.Errorf("unexpected arguments %q", args))
	case c.packets <= 0:
		return usage(stderr, fmt.Errorf("-packets must be positive, got %d", c.packets))
	case c.rate < 0:
		return usage(stderr, fmt.Errorf("-rate must be >= 0, got %g", c.rate))
	case c.intensity < 0 || c.intensity > 1:
		return usage(stderr, fmt.Errorf("-faults must be in [0,1], got %g", c.intensity))
	case c.queues < 1:
		return usage(stderr, fmt.Errorf("-queues must be >= 1, got %d", c.queues))
	case c.batch < 0:
		return usage(stderr, fmt.Errorf("-batch must be >= 0, got %d", c.batch))
	case c.batch > 0 && c.queues == 1:
		return usage(stderr, fmt.Errorf("-batch only applies to multi-queue runs (-queues >= 2)"))
	case c.replay != "" && (c.flows > 0 || c.pktLen > 0):
		return usage(stderr, fmt.Errorf("-replay fixes the traffic profile; -flows/-pktlen only apply to generated traffic"))
	case c.updProg != "" && c.updAfter < 0:
		return usage(stderr, fmt.Errorf("-update-prog requires -update-after"))
	case c.updProg == "" && c.updAfter >= 0:
		return usage(stderr, fmt.Errorf("-update-after requires -update-prog"))
	case c.updProg != "" && c.updAfter >= c.packets:
		return usage(stderr, fmt.Errorf("-update-after %d never triggers within -packets %d", c.updAfter, c.packets))
	}

	stop, err := c.prof.start(stderr)
	if err != nil {
		return fail(stderr, err)
	}
	defer stop()

	var reg *obs.Registry
	if c.metrics {
		reg = obs.NewRegistry()
	}
	var tr *obs.Tracer
	if c.tracePath != "" {
		var done func() error
		if tr, done, err = openTrace(c.tracePath); err != nil {
			return fail(stderr, err)
		}
		defer func() {
			if err := done(); err != nil {
				fmt.Fprintln(stderr, err)
			}
			fmt.Fprintf(stdout, "\ntrace: %d events written to %s\n", tr.Emitted(), c.tracePath)
		}()
	}

	level, err := protect.ParseLevel(c.protLevel)
	if err != nil {
		return fail(stderr, err)
	}
	app, err := c.prog.bundled()
	if err != nil {
		return fail(stderr, err)
	}
	prog, err := app.Program()
	if err != nil {
		return fail(stderr, err)
	}
	pl, err := core.Compile(prog, core.Options{})
	if err != nil {
		return fail(stderr, err)
	}

	cfg := nic.ShellConfig{Queues: c.queues, Batch: c.batch, FastPath: c.fastPath}
	if c.policy == "stall" {
		cfg.Sim.Policy = hwsim.PolicyStall
	}
	if c.intensity > 0 {
		cfg.Faults = faults.Profile(c.intensity, c.seed)
	}
	cfg.Sim.WatchdogCycles = c.watchdog
	cfg.Sim.Protection = level
	cfg.Sim.ScrubCyclesPerWord = c.scrubEach
	cfg.Sim.MaxRecoveries = c.maxRecov
	cfg.Sim.RecoveryJitterSeed = c.recJitter
	cfg.Sim.Metrics = reg
	cfg.Sim.Trace = tr

	sh, err := nic.New(pl, cfg)
	if err != nil {
		return fail(stderr, err)
	}
	if err := app.Setup(sh.Maps()); err != nil {
		return fail(stderr, err)
	}

	if c.updProg != "" {
		upd, ok := apps.ByName(c.updProg)
		if !ok {
			return usage(stderr, fmt.Errorf("unknown -update-prog %q", c.updProg))
		}
		uprog, err := upd.Program()
		if err != nil {
			return fail(stderr, err)
		}
		ucfg := liveupdate.Config{Prog: uprog, Setup: upd.SetupHost, Trace: tr, Metrics: reg}
		if err := sh.ScheduleUpdate(c.updAfter, ucfg); err != nil {
			return fail(stderr, err)
		}
	}

	// The shell is the one source for which engine serves and why. The
	// library falls back silently, but a user who asked for -fastpath
	// explicitly gets told why the request cannot be honoured instead.
	engine, why := sh.Serving()
	if c.fastPath && why != "" {
		return usage(stderr, fmt.Errorf("-fastpath cannot be honoured: %s keeps the %s serving", why, engine))
	}

	var next func() []byte
	frameLen := 64
	switch c.replay {
	case "":
		tcfg := app.Traffic
		if c.flows > 0 {
			tcfg.Flows = c.flows
		}
		if c.pktLen > 0 {
			tcfg.PacketLen = c.pktLen
		}
		frameLen = tcfg.PacketLen
		next = pktgen.NewGenerator(tcfg).Next
	case "caida":
		frameLen = pktgen.CAIDAProfile().MeanPacketLen
		next = pktgen.NewTrace(pktgen.CAIDAProfile()).Next
	case "mawi":
		frameLen = pktgen.MAWIProfile().MeanPacketLen
		next = pktgen.NewTrace(pktgen.MAWIProfile()).Next
	default:
		return fail(stderr, fmt.Errorf("unknown replay profile %q", c.replay))
	}

	offered := c.rate * 1e6
	if offered <= 0 {
		offered = sh.LineRateMpps(frameLen) * 1e6
	}

	if why != "" {
		why = ", " + why
	}
	fmt.Fprintf(stdout, "running %s: %d stages, %d packets at %.1f Mpps offered (%s)%s\n",
		app.Name, pl.NumStages(), c.packets, offered/1e6, engine, why)
	rep, err := sh.RunLoad(next, c.packets, offered)
	if errors.Is(err, hwsim.ErrRecoveryExhausted) {
		// The typed give-up of the recovery subsystem: the store kept
		// corrupting faster than drain-and-restart could heal it. A
		// distinct exit status lets campaign scripts tell "pipeline
		// declared unrecoverable" from configuration errors.
		fmt.Fprintf(stderr, "unrecoverable: %v\n", err)
		return 2
	}
	if err != nil {
		return fail(stderr, err)
	}

	w := stdout
	fmt.Fprintf(w, "\nresults:\n")
	fmt.Fprintf(w, "  offered:   %8.2f Mpps (%.1f Gbps)\n", rep.OfferedMpps, rep.OfferedGbps)
	fmt.Fprintf(w, "  achieved:  %8.2f Mpps (%.1f Gbps)\n", rep.AchievedMpps, rep.AchievedGbps)
	fmt.Fprintf(w, "  received:  %d of %d (lost at input: %d)\n", rep.Received, rep.Sent, rep.Lost)
	fmt.Fprintf(w, "  latency:   avg %.0f ns, max %.0f ns\n", rep.AvgLatencyNs, rep.MaxLatencyNs)
	fmt.Fprintf(w, "  flushes:   %d (%.0f/s)\n", rep.Flushes, rep.FlushesPerS)
	if rep.QueueCount > 1 {
		fmt.Fprintf(w, "  queues:    %d replicas, %d fallback steers, %d merge conflicts\n",
			rep.QueueCount, rep.SteerFallbacks, rep.MergeConflicts)
		for _, qr := range rep.PerQueue {
			fmt.Fprintf(w, "    q%-2d steered %6d  received %6d  lost %4d  %8.2f Mpps\n",
				qr.Queue, qr.Steered, qr.Received, qr.Lost, qr.AchievedMpps)
		}
	}
	if inj := sh.Injector(); inj != nil {
		fmt.Fprintf(w, "  faults:    %s\n", inj.Counters())
		fmt.Fprintf(w, "             pipeline faults %d, malformed sent %d / hw-dropped %d\n",
			rep.FaultsInjected, rep.MalformedSent, rep.MalformedDropped)
		fmt.Fprintf(w, "             overflow bursts %d (episodes %d), watchdog trips %d\n",
			rep.OverflowBursts, rep.QueueOverflows, rep.WatchdogTrips)
	}
	if c.updProg != "" {
		fmt.Fprintf(w, "  update:    %s -> %s after %d packets: stage %s\n",
			app.Name, c.updProg, c.updAfter, rep.UpdateStage)
		fmt.Fprintf(w, "             migrated %d entries, canaried %d (%d diverged)\n",
			rep.MigratedEntries, rep.CanariedPackets, rep.CanaryDivergences)
		fmt.Fprintf(w, "             held %d over a %d-cycle cutover\n", rep.HeldPackets, rep.CutoverTicks)
	}
	if level != protect.LevelNone {
		fmt.Fprintf(w, "  protect:   %s, %d words corrected, %d uncorrectable\n",
			level, rep.CorrectedWords, rep.UncorrectableWords)
		fmt.Fprintf(w, "             scrub passes %d, checkpoints %d, recoveries %d (%d frames drained, %d backoff cycles)\n",
			rep.ScrubPasses, rep.CheckpointsTaken, rep.Recoveries, rep.RecoveryAborted, rep.RecoveryBackoffCycles)
	}
	fmt.Fprintf(w, "  verdicts:\n")
	for action := ebpf.XDPAborted; action <= ebpf.XDPRedirect; action++ {
		if count := rep.Actions.Count(action); count > 0 {
			fmt.Fprintf(w, "    %-12v %d\n", action, count)
		}
	}

	fmt.Fprintf(w, "\nhost-visible map state:\n")
	for id := 0; id < sh.Maps().Len(); id++ {
		m, _ := sh.Maps().ByID(id)
		fmt.Fprintf(w, "  %-10s %d entries\n", m.Spec().Name, m.Len())
	}

	if reg != nil {
		fmt.Fprintf(w, "\nmetrics registry:\n")
		if err := reg.Render(w); err != nil {
			return fail(stderr, err)
		}
	}

	if rep.UpdatesRolledBack > 0 {
		// The old pipeline kept serving (the run above is valid), but the
		// requested swap did not happen: campaign scripts need to know.
		fmt.Fprintf(stderr, "update rolled back: %s\n", rep.UpdateFailure)
		return 2
	}
	return 0
}
