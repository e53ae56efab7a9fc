package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"ehdl/internal/apps"
	"ehdl/internal/faults"
	"ehdl/internal/fleet"
	"ehdl/internal/nic"
	"ehdl/internal/tenant"
)

// fleetCmd runs a cluster of simulated NIC shells behind the fleet
// control plane: flows consistent-hashed across devices, rolling
// canary live-updates, recovery-aware rebalancing and a seeded chaos
// campaign, with one aggregated report at the end.
//
//	ehdl fleet -devices 8 -epochs 20
//	ehdl fleet -devices 8 -update-prog toy -rollout-rate 2
//	ehdl fleet -devices 8 -chaos 0.3 -seed 7 -verify
//	ehdl fleet -app firewall -devices 4 -epochs 16 -json
//	ehdl fleet -devices 4 -tenants firewall:0.5,toy:0.5 -band 50
//	ehdl fleet -devices 8 -chaos 0.3 -journal /var/lib/ehdl/fleet
//	ehdl fleet -devices 8 -chaos 0.3 -journal /var/lib/ehdl/fleet -resume
//
// Exit status: 0 on a clean run, 1 on a usage or configuration error
// (or a rollout that ran out of epochs), 2 when the rollout halted and
// rolled back, verification found a verdict divergence on a healthy
// device, or a -tenants spec list was rejected by the per-device
// admission budget gate, 3 on a durability failure — a corrupt journal
// record, a -resume whose configuration does not fingerprint-match the
// journaled run, a recovery replay that diverged from the journaled
// digests, or a journal directory reused without -resume.
type fleetCmd struct {
	prog        loader
	devices     int
	epochs      int
	packets     int
	rate        float64
	seed        int64
	verify      bool
	chaos       float64
	updProg     string
	rollRate    int
	tolerance   float64
	jsonOut     bool
	tracePath   string
	journalDir  string
	resume      bool
	tenantsSpec string
	tenantBand  float64
}

func (c *fleetCmd) declare(fs *flag.FlagSet) {
	c.prog.declare(fs, "toy", false)
	fs.IntVar(&c.devices, "devices", 4, "device shards behind the cluster ring")
	fs.IntVar(&c.epochs, "epochs", 16, "fleet epochs to run")
	fs.IntVar(&c.packets, "epoch-packets", 256, "packets generated per epoch")
	fs.Float64Var(&c.rate, "rate", 50, "per-device offered rate in Mpps")
	fs.Int64Var(&c.seed, "seed", 1, "master seed: traffic, fault forks, jitter (same seed: same run, byte for byte)")
	fs.BoolVar(&c.verify, "verify", true, "mirror every device with the reference interpreter and diff verdicts per epoch")
	fs.Float64Var(&c.chaos, "chaos", 0, "chaos intensity in [0,1]: derives per-device fault campaigns and a seeded kill/corrupt schedule")
	fs.StringVar(&c.updProg, "update-prog", "", "roll this application across the fleet with canary gating")
	fs.IntVar(&c.rollRate, "rollout-rate", 2, "epochs per device in the rollout (update epoch + soak epochs)")
	fs.Float64Var(&c.tolerance, "tolerance", 0, "soak-gate throughput floor in percent below baseline (0: 5)")
	fs.BoolVar(&c.jsonOut, "json", false, "print the fleet report as JSON instead of text")
	fs.StringVar(&c.tracePath, "trace", "", "write fleet rollout/rebalance events to this file (JSONL; compact text if the name ends in .txt)")
	fs.StringVar(&c.journalDir, "journal", "", "directory for the crash-consistency write-ahead journal")
	fs.BoolVar(&c.resume, "resume", false, "recover the run journaled in -journal: verified replay, then live execution from the journal tail")
	fs.StringVar(&c.tenantsSpec, "tenants", "", "multi-tenant devices: comma-separated app:share list admitted on every shard (replaces -app)")
	fs.Float64Var(&c.tenantBand, "band", 0, "per-device tenant admission ceiling in percent of fabric utilisation (0: tenant default)")
}

func (c *fleetCmd) run(args []string, stdout, stderr io.Writer) int {
	switch {
	case len(args) > 0:
		return usage(stderr, fmt.Errorf("unexpected arguments %q", args))
	case c.devices < 1:
		return usage(stderr, fmt.Errorf("-devices must be >= 1, got %d", c.devices))
	case c.epochs < 1:
		return usage(stderr, fmt.Errorf("-epochs must be >= 1, got %d", c.epochs))
	case c.packets < 1:
		return usage(stderr, fmt.Errorf("-epoch-packets must be >= 1, got %d", c.packets))
	case c.rate <= 0:
		return usage(stderr, fmt.Errorf("-rate must be positive, got %g", c.rate))
	case c.chaos < 0 || c.chaos > 1:
		return usage(stderr, fmt.Errorf("-chaos must be in [0,1], got %g", c.chaos))
	case c.rollRate < 2:
		return usage(stderr, fmt.Errorf("-rollout-rate must be >= 2 (update epoch + soak epoch), got %d", c.rollRate))
	case c.tenantsSpec != "" && c.updProg != "":
		return usage(stderr, fmt.Errorf("fleet-wide rollouts are single-pipeline; tenant fleets take no rollout"))
	case c.tenantsSpec == "" && c.tenantBand != 0:
		return usage(stderr, fmt.Errorf("-band only applies with -tenants"))
	case c.tenantBand < 0 || c.tenantBand > 100:
		return usage(stderr, fmt.Errorf("-band must be in (0,100], got %g", c.tenantBand))
	case c.resume && c.journalDir == "":
		return usage(stderr, fmt.Errorf("-resume requires -journal"))
	}

	cfg := fleet.Config{
		Devices:      c.devices,
		Seed:         c.seed,
		EpochPackets: c.packets,
		OfferedPps:   c.rate * 1e6,
		Verify:       c.verify,
		JournalDir:   c.journalDir,
		Resume:       c.resume,
	}
	workload := c.prog.app
	if c.tenantsSpec != "" {
		specs, err := tenant.ParseSpecList(c.tenantsSpec, nic.ShellConfig{})
		if err != nil {
			return usage(stderr, err)
		}
		cfg.Tenants = specs
		cfg.TenantBandPct = c.tenantBand
		cfg.Verify = false // tenant mode has no single-pipeline mirror
		workload = fmt.Sprintf("%d tenants (%s)", len(specs), c.tenantsSpec)
	} else {
		app, err := c.prog.bundled()
		if err != nil {
			return fail(stderr, err)
		}
		cfg.App = app
	}

	if c.chaos > 0 {
		// Per-device hardware fault campaigns fork off the master seed;
		// the kill/corrupt schedule is drawn up front from its own
		// seeded stream, so the whole campaign replays from -seed.
		cfg.Chaos = faults.Profile(c.chaos, c.seed)
		rng := rand.New(rand.NewSource(c.seed*0x9e3779b9 + 0x7f4a7c15))
		cfg.KillAt = map[int][]int{}
		cfg.CorruptAt = map[int][]int{}
		for e := 1; e < c.epochs; e++ {
			for d := 0; d < c.devices; d++ {
				switch {
				case rng.Float64() < c.chaos/float64(c.epochs):
					cfg.KillAt[e] = append(cfg.KillAt[e], d)
				case rng.Float64() < c.chaos/float64(c.epochs):
					cfg.CorruptAt[e] = append(cfg.CorruptAt[e], d)
				}
			}
		}
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
		cfg.Update = &fleet.UpdateConfig{
			Prog:         uprog,
			Setup:        upd.SetupHost,
			RolloutRate:  c.rollRate,
			TolerancePct: c.tolerance,
		}
	}

	if c.tracePath != "" {
		tr, done, err := openTrace(c.tracePath)
		if err != nil {
			return fail(stderr, err)
		}
		cfg.Trace = tr
		defer func() {
			if err := done(); err != nil {
				fmt.Fprintln(stderr, err)
			}
		}()
	}

	ctrl, err := fleet.New(cfg)
	if err != nil {
		var ae *tenant.AdmissionError
		if errors.As(err, &ae) {
			// The per-device budget gate rejected the tenant set: a
			// distinct exit status for capacity-planning scripts.
			fmt.Fprintf(stderr, "admission rejected: %v\n", ae)
			return 2
		}
		return fail(stderr, err)
	}
	fmt.Fprintf(stderr, "fleet: %d devices serving %s, %d epochs x %d packets, seed %d\n",
		c.devices, workload, c.epochs, c.packets, c.seed)
	start := time.Now()
	rep, err := ctrl.Run(c.epochs)
	wall := time.Since(start)
	if err != nil {
		if fleet.DurabilityError(err) {
			fmt.Fprintf(stderr, "durability failure: %v\n", err)
			return 3
		}
		return fail(stderr, err)
	}
	if ri := ctrl.RecoveryInfo(); ri.Resumed {
		fmt.Fprintf(stderr, "recovered: %d epochs replayed and digest-verified", ri.ReplayedEpochs)
		if ri.TornBytesTruncated > 0 {
			fmt.Fprintf(stderr, ", %d torn bytes truncated", ri.TornBytesTruncated)
		}
		fmt.Fprintln(stderr)
	}

	if c.jsonOut {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintln(stdout, string(out))
	} else {
		printFleetReport(stdout, rep)
	}
	// Host speed goes to stderr: stdout is the report, byte-identical
	// for a seed on any machine at any GOMAXPROCS.
	fmt.Fprintf(stderr, "host: %.3f Mpkt/s wall clock (%d packets in %s), %d devices, GOMAXPROCS %d\n",
		float64(rep.Generated)/wall.Seconds()/1e6, rep.Generated, wall.Round(time.Millisecond), rep.Devices, runtime.GOMAXPROCS(0))

	if !rep.Accounted() {
		fmt.Fprintln(stderr, "fleet: loss accounting does not balance")
		return 1
	}
	switch {
	case rep.Rollout == "rolled-back" || rep.Rollout == "halted":
		fmt.Fprintf(stderr, "rollout rolled back: %s\n", rep.RolloutHalt)
		return 2
	case rep.VerdictDivergences > 0:
		fmt.Fprintf(stderr, "%d verdict divergences on healthy devices\n", rep.VerdictDivergences)
		return 2
	case rep.Rollout == "rolling":
		fmt.Fprintln(stderr, "rollout incomplete: ran out of epochs")
		return 1
	}
	return 0
}

func printFleetReport(w io.Writer, rep fleet.Report) {
	fmt.Fprintf(w, "fleet report (%d devices, %d epochs, seed %d):\n", rep.Devices, rep.Epochs, rep.Seed)
	fmt.Fprintf(w, "  traffic:   %d generated (+%d chaos extras), %d delivered\n",
		rep.Generated, rep.ExtraInjected, rep.Delivered)
	fmt.Fprintf(w, "  loss:      queue %d, killed %d, mid-serve %d, unroutable %d (books balance: %v)\n",
		rep.QueueLost, rep.KilledLoss, rep.MidServeLoss, rep.UnroutableLoss, rep.Accounted())
	if rep.ThrottledLoss+rep.QuarantinedLoss+rep.TenantDownLoss > 0 {
		fmt.Fprintf(w, "  tenancy:   throttled %d, quarantined %d, tenant-down %d\n",
			rep.ThrottledLoss, rep.QuarantinedLoss, rep.TenantDownLoss)
	}
	if len(rep.Device.PerTenant) > 0 {
		fmt.Fprintf(w, "  tenants:\n")
		for _, sl := range rep.Device.PerTenant {
			fmt.Fprintf(w, "    %-14s vlan %-4d steered %7d received %7d throttled %5d lost %4d down %4d\n",
				sl.Name, sl.VLAN, sl.Steered, sl.Received, sl.Throttled, sl.Lost, sl.DownLoss)
		}
	}
	fmt.Fprintf(w, "  verify:    %d device-epochs diffed, %d divergences, %d quarantines\n",
		rep.VerifiedEpochs, rep.VerdictDivergences, rep.Quarantines)
	fmt.Fprintf(w, "  health:    %d drains, %d readmits, %d kills, %d dead\n",
		rep.Drains, rep.Readmits, rep.Kills, rep.DeadDevices)
	if rep.Rollout != "" {
		fmt.Fprintf(w, "  rollout:   %s (%d updates, %d rolled back)",
			rep.Rollout, rep.Device.UpdatesCompleted, rep.Device.UpdatesRolledBack)
		if rep.RolloutHalt != "" {
			fmt.Fprintf(w, " — %s", rep.RolloutHalt)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  devices:\n")
	for _, d := range rep.PerDevice {
		fmt.Fprintf(w, "    d%-2d %-11s received %7d  lost %4d  drains %d",
			d.ID, d.State, d.Received, d.QueueLost, d.Drains)
		if d.Updated {
			fmt.Fprintf(w, "  [updated]")
		}
		if d.Reverted {
			fmt.Fprintf(w, "  [reverted]")
		}
		if d.DeathCause != "" {
			fmt.Fprintf(w, "  (%s)", d.DeathCause)
		}
		if d.DeadTenants > 0 {
			fmt.Fprintf(w, "  [%d dead tenants]", d.DeadTenants)
		}
		fmt.Fprintln(w)
	}
}
