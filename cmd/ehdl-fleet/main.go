// Command ehdl-fleet runs a cluster of simulated NIC shells behind the
// fleet control plane: flows consistent-hashed across devices, rolling
// canary live-updates, recovery-aware rebalancing and a seeded chaos
// campaign, with one aggregated report at the end.
//
// Usage:
//
//	ehdl-fleet -devices 8 -epochs 20
//	ehdl-fleet -devices 8 -update-prog toy -rollout-rate 2
//	ehdl-fleet -devices 8 -chaos 0.3 -seed 7 -verify
//	ehdl-fleet -app firewall -devices 4 -epochs 16 -json
//	ehdl-fleet -devices 4 -tenants firewall:0.5,toy:0.5 -band 50
//	ehdl-fleet -devices 8 -chaos 0.3 -journal /var/lib/ehdl/fleet
//	ehdl-fleet -devices 8 -chaos 0.3 -journal /var/lib/ehdl/fleet -resume
//
// Exit status: 0 on a clean run, 1 on a usage or configuration error
// (or a rollout that ran out of epochs), 2 when the rollout halted and
// rolled back, verification found a verdict divergence on a healthy
// device, or a -tenants spec list was rejected by the per-device
// admission budget gate, 3 on a durability failure — a corrupt journal
// record, a -resume whose configuration does not fingerprint-match the
// journaled run, a recovery replay that diverged from the journaled
// digests, or a journal directory reused without -resume.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"ehdl/internal/apps"
	"ehdl/internal/faults"
	"ehdl/internal/fleet"
	"ehdl/internal/nic"
	"ehdl/internal/obs"
	"ehdl/internal/tenant"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		appName   = flag.String("app", "toy", "application every device serves (time-free apps verify cleanly)")
		devices   = flag.Int("devices", 4, "device shards behind the cluster ring")
		epochs    = flag.Int("epochs", 16, "fleet epochs to run")
		packets   = flag.Int("epoch-packets", 256, "packets generated per epoch")
		rate      = flag.Float64("rate", 50, "per-device offered rate in Mpps")
		seed      = flag.Int64("seed", 1, "master seed: traffic, fault forks, jitter (same seed: same run, byte for byte)")
		verify    = flag.Bool("verify", true, "mirror every device with the reference interpreter and diff verdicts per epoch")
		chaos     = flag.Float64("chaos", 0, "chaos intensity in [0,1]: derives per-device fault campaigns and a seeded kill/corrupt schedule")
		updProg   = flag.String("update-prog", "", "roll this application across the fleet with canary gating")
		rollRate  = flag.Int("rollout-rate", 2, "epochs per device in the rollout (update epoch + soak epochs)")
		tolerance = flag.Float64("tolerance", 0, "soak-gate throughput floor in percent below baseline (0: 5)")
		jsonOut   = flag.Bool("json", false, "print the fleet report as JSON instead of text")
		tracePath = flag.String("trace", "", "write fleet rollout/rebalance events to this file (JSONL)")

		journalDir = flag.String("journal", "", "directory for the crash-consistency write-ahead journal")
		resume     = flag.Bool("resume", false, "recover the run journaled in -journal: verified replay, then live execution from the journal tail")

		tenantsSpec = flag.String("tenants", "", "multi-tenant devices: comma-separated app:share list admitted on every shard (replaces -app)")
		tenantBand  = flag.Float64("band", 0, "per-device tenant admission ceiling in percent of fabric utilisation (0: tenant default)")
	)
	flag.Parse()

	switch {
	case flag.NArg() > 0:
		return usage(fmt.Errorf("unexpected arguments %q", flag.Args()))
	case *devices < 1:
		return usage(fmt.Errorf("-devices must be >= 1, got %d", *devices))
	case *epochs < 1:
		return usage(fmt.Errorf("-epochs must be >= 1, got %d", *epochs))
	case *packets < 1:
		return usage(fmt.Errorf("-epoch-packets must be >= 1, got %d", *packets))
	case *rate <= 0:
		return usage(fmt.Errorf("-rate must be positive, got %g", *rate))
	case *chaos < 0 || *chaos > 1:
		return usage(fmt.Errorf("-chaos must be in [0,1], got %g", *chaos))
	case *rollRate < 2:
		return usage(fmt.Errorf("-rollout-rate must be >= 2 (update epoch + soak epoch), got %d", *rollRate))
	case *tenantsSpec != "" && *updProg != "":
		return usage(fmt.Errorf("fleet-wide rollouts are single-pipeline; tenant fleets take no rollout"))
	case *tenantsSpec == "" && *tenantBand != 0:
		return usage(fmt.Errorf("-band only applies with -tenants"))
	case *tenantBand < 0 || *tenantBand > 100:
		return usage(fmt.Errorf("-band must be in (0,100], got %g", *tenantBand))
	case *resume && *journalDir == "":
		return usage(fmt.Errorf("-resume requires -journal"))
	}

	cfg := fleet.Config{
		Devices:      *devices,
		Seed:         *seed,
		EpochPackets: *packets,
		OfferedPps:   *rate * 1e6,
		Verify:       *verify,
		JournalDir:   *journalDir,
		Resume:       *resume,
	}
	workload := *appName
	if *tenantsSpec != "" {
		specs, err := tenant.ParseSpecList(*tenantsSpec, nic.ShellConfig{})
		if err != nil {
			return usage(err)
		}
		cfg.Tenants = specs
		cfg.TenantBandPct = *tenantBand
		cfg.Verify = false // tenant mode has no single-pipeline mirror
		workload = fmt.Sprintf("%d tenants (%s)", len(specs), *tenantsSpec)
	} else {
		app, ok := apps.ByName(*appName)
		if !ok {
			return fail(fmt.Errorf("unknown application %q", *appName))
		}
		cfg.App = app
	}

	if *chaos > 0 {
		// Per-device hardware fault campaigns fork off the master seed;
		// the kill/corrupt schedule is drawn up front from its own
		// seeded stream, so the whole campaign replays from -seed.
		cfg.Chaos = faults.Profile(*chaos, *seed)
		rng := rand.New(rand.NewSource(*seed*0x9e3779b9 + 0x7f4a7c15))
		cfg.KillAt = map[int][]int{}
		cfg.CorruptAt = map[int][]int{}
		for e := 1; e < *epochs; e++ {
			for d := 0; d < *devices; d++ {
				switch {
				case rng.Float64() < *chaos/float64(*epochs):
					cfg.KillAt[e] = append(cfg.KillAt[e], d)
				case rng.Float64() < *chaos/float64(*epochs):
					cfg.CorruptAt[e] = append(cfg.CorruptAt[e], d)
				}
			}
		}
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
		cfg.Update = &fleet.UpdateConfig{
			Prog:         uprog,
			Setup:        upd.SetupHost,
			RolloutRate:  *rollRate,
			TolerancePct: *tolerance,
		}
	}

	var tr *obs.Tracer
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		tr = obs.NewTracer(0, obs.NewJSONLSink(f))
		cfg.Trace = tr
		defer func() {
			if err := tr.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	ctrl, err := fleet.New(cfg)
	if err != nil {
		var ae *tenant.AdmissionError
		if errors.As(err, &ae) {
			// The per-device budget gate rejected the tenant set: a
			// distinct exit status for capacity-planning scripts.
			fmt.Fprintf(os.Stderr, "admission rejected: %v\n", ae)
			return 2
		}
		return fail(err)
	}
	fmt.Fprintf(os.Stderr, "fleet: %d devices serving %s, %d epochs x %d packets, seed %d\n",
		*devices, workload, *epochs, *packets, *seed)
	start := time.Now()
	rep, err := ctrl.Run(*epochs)
	wall := time.Since(start)
	if err != nil {
		if fleet.DurabilityError(err) {
			fmt.Fprintf(os.Stderr, "durability failure: %v\n", err)
			return 3
		}
		return fail(err)
	}
	if ri := ctrl.RecoveryInfo(); ri.Resumed {
		fmt.Fprintf(os.Stderr, "recovered: %d epochs replayed and digest-verified", ri.ReplayedEpochs)
		if ri.TornBytesTruncated > 0 {
			fmt.Fprintf(os.Stderr, ", %d torn bytes truncated", ri.TornBytesTruncated)
		}
		fmt.Fprintln(os.Stderr)
	}

	if *jsonOut {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(out))
	} else {
		printReport(rep)
	}
	// Host speed goes to stderr: stdout is the report, byte-identical
	// for a seed on any machine at any GOMAXPROCS.
	fmt.Fprintf(os.Stderr, "host: %.3f Mpkt/s wall clock (%d packets in %s), %d devices, GOMAXPROCS %d\n",
		float64(rep.Generated)/wall.Seconds()/1e6, rep.Generated, wall.Round(time.Millisecond), rep.Devices, runtime.GOMAXPROCS(0))

	if !rep.Accounted() {
		fmt.Fprintln(os.Stderr, "fleet: loss accounting does not balance")
		return 1
	}
	switch {
	case rep.Rollout == "rolled-back" || rep.Rollout == "halted":
		fmt.Fprintf(os.Stderr, "rollout rolled back: %s\n", rep.RolloutHalt)
		return 2
	case rep.VerdictDivergences > 0:
		fmt.Fprintf(os.Stderr, "%d verdict divergences on healthy devices\n", rep.VerdictDivergences)
		return 2
	case rep.Rollout == "rolling":
		fmt.Fprintln(os.Stderr, "rollout incomplete: ran out of epochs")
		return 1
	}
	return 0
}

func printReport(rep fleet.Report) {
	fmt.Printf("fleet report (%d devices, %d epochs, seed %d):\n", rep.Devices, rep.Epochs, rep.Seed)
	fmt.Printf("  traffic:   %d generated (+%d chaos extras), %d delivered\n",
		rep.Generated, rep.ExtraInjected, rep.Delivered)
	fmt.Printf("  loss:      queue %d, killed %d, mid-serve %d, unroutable %d (books balance: %v)\n",
		rep.QueueLost, rep.KilledLoss, rep.MidServeLoss, rep.UnroutableLoss, rep.Accounted())
	if rep.ThrottledLoss+rep.QuarantinedLoss+rep.TenantDownLoss > 0 {
		fmt.Printf("  tenancy:   throttled %d, quarantined %d, tenant-down %d\n",
			rep.ThrottledLoss, rep.QuarantinedLoss, rep.TenantDownLoss)
	}
	if len(rep.Device.PerTenant) > 0 {
		fmt.Printf("  tenants:\n")
		for _, sl := range rep.Device.PerTenant {
			fmt.Printf("    %-14s vlan %-4d steered %7d received %7d throttled %5d lost %4d down %4d\n",
				sl.Name, sl.VLAN, sl.Steered, sl.Received, sl.Throttled, sl.Lost, sl.DownLoss)
		}
	}
	fmt.Printf("  verify:    %d device-epochs diffed, %d divergences, %d quarantines\n",
		rep.VerifiedEpochs, rep.VerdictDivergences, rep.Quarantines)
	fmt.Printf("  health:    %d drains, %d readmits, %d kills, %d dead\n",
		rep.Drains, rep.Readmits, rep.Kills, rep.DeadDevices)
	if rep.Rollout != "" {
		fmt.Printf("  rollout:   %s (%d updates, %d rolled back)",
			rep.Rollout, rep.Device.UpdatesCompleted, rep.Device.UpdatesRolledBack)
		if rep.RolloutHalt != "" {
			fmt.Printf(" — %s", rep.RolloutHalt)
		}
		fmt.Println()
	}
	fmt.Printf("  devices:\n")
	for _, d := range rep.PerDevice {
		fmt.Printf("    d%-2d %-11s received %7d  lost %4d  drains %d",
			d.ID, d.State, d.Received, d.QueueLost, d.Drains)
		if d.Updated {
			fmt.Printf("  [updated]")
		}
		if d.Reverted {
			fmt.Printf("  [reverted]")
		}
		if d.DeathCause != "" {
			fmt.Printf("  (%s)", d.DeathCause)
		}
		if d.DeadTenants > 0 {
			fmt.Printf("  [%d dead tenants]", d.DeadTenants)
		}
		fmt.Println()
	}
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, err)
	return 1
}

func usage(err error) int {
	fmt.Fprintf(os.Stderr, "usage error: %v (see -h)\n", err)
	return 1
}
