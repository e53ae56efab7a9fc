// Package nic wraps a compiled pipeline in a Corundum-style NIC shell
// (Section 4.5): ingress and egress asynchronous FIFOs decouple the
// pipeline from the MACs, and an offered-load driver plays the role of
// the DPDK traffic generator of the paper's testbed, pacing packets at
// a configured rate and measuring what comes back.
package nic

import (
	"context"
	"fmt"

	"ehdl/internal/core"
	"ehdl/internal/ebpf"
	"ehdl/internal/fastpath"
	"ehdl/internal/faults"
	"ehdl/internal/hwsim"
	"ehdl/internal/liveupdate"
	"ehdl/internal/maps"
	"ehdl/internal/obs"
	"ehdl/internal/rss"
	"ehdl/internal/vm"
)

// The shell's fixed hardware: a 100 Gb/s port, and the combined latency
// of the MAC, the ingress and egress async FIFOs and the clock-domain
// crossings added to every packet's forwarding latency (~640 ns at
// 250 MHz, which lands end-to-end latency near the paper's microsecond).
const (
	linkGbps   = 100
	fifoCycles = 160
)

// ShellConfig parameterises the shell.
type ShellConfig struct {
	// ClockHz is the shell and pipeline clock. 0 means 250 MHz.
	ClockHz float64
	// Faults configures the shell's fault-injection campaign: when any
	// rate is non-zero the shell builds one seeded injector, hands it to
	// the pipeline simulator (SEU flips, flush storms) and uses it itself
	// to damage generated frames and to fire ingress overflow bursts.
	Faults faults.Config
	// Queues selects multi-queue RSS scale-out (Section 5's replicated
	// deployment): values above 1 instantiate that many independent
	// pipeline replicas behind a Toeplitz flow-hash dispatcher, each on
	// its own goroutine with banked per-flow maps. 0 or 1 keeps the
	// classic single-pipeline shell.
	Queues int
	// Batch is the dispatcher batch size in multi-queue mode (amortised
	// channel operations). 0 means rss.DefaultBatch.
	Batch int
	// FastPath requests the host fast path (fastpath.NewCore): each
	// packet runs to its verdict at ingress on the interpreter's
	// hazard-free executor, inside a timing skeleton of the pipeline. It
	// is a request: a configuration the fast path cannot serve
	// (fastpath.Eligible names the feature) keeps the cycle-accurate
	// interpreter; Shell.FastPath and Shell.Serving report what serves.
	FastPath bool
	// Hazard policy and other simulator knobs.
	Sim hwsim.Config
}

// pendingUpdate is an armed-but-not-started live update.
type pendingUpdate struct {
	after int
	cfg   liveupdate.Config
}

// Shell is one instantiated NIC.
type Shell struct {
	cfg ShellConfig // defaults resolved
	inj *faults.Injector

	// The single-queue engine: the compiled machine or the interpreter,
	// whichever fastpath.NewCore chose (fallback says why the
	// interpreter), and the program it runs. A live update replaces all
	// three.
	core     hwsim.Core
	prog     *ebpf.Program
	fallback string

	// engine is the multi-queue RSS scale-out (nil when Queues <= 1).
	engine *rss.Engine

	// win is the scratch the serving engine's counter window closes
	// into, kept across runs so a RunLoad allocates nothing per window.
	win hwsim.Stats

	// Master clock state: helper-visible time survives pipeline swaps on
	// both loops. cycleBase is the cycle count retired engines
	// accumulated before the serving one took over (on a multi-queue
	// shell, the furthest replica's); pinned, when set, freezes time
	// (tests).
	cycleBase uint64
	pinned    *uint64

	pending *pendingUpdate
}

// New builds a shell around a compiled pipeline with fresh maps.
func New(pl *core.Pipeline, cfg ShellConfig) (*Shell, error) {
	// Resolve the documented defaults once; everything reads the fields.
	if cfg.ClockHz <= 0 {
		cfg.ClockHz = 250e6
	}
	cfg.Sim.ClockHz = cfg.ClockHz
	if cfg.Faults.Enabled() {
		cfg.Sim.Faults = faults.New(cfg.Faults)
	}
	// One injector — built here, or pre-built and passed through the
	// simulator config — serves the engines and the shell-side classes
	// (malformed traffic, overflow bursts) from the same seeded stream.
	sh := &Shell{cfg: cfg, inj: cfg.Sim.Faults}
	if cfg.Queues > 1 {
		// Multi-queue scale-out: N replicas behind the RSS dispatcher.
		// The engine forks the injector per replica; the shell keeps the
		// base stream for traffic damage and overflow bursts.
		eng, err := sh.newEngine(pl, cfg.Sim)
		if err != nil {
			return nil, err
		}
		sh.engine = eng
	} else {
		var err error
		if sh.core, sh.fallback, err = sh.newCore(pl, cfg.Sim); err != nil {
			return nil, err
		}
		sh.prog = pl.Prog
		// The shell owns the helper-visible clock so it stays continuous
		// across a live-update swap. With no swap and no pin the value is
		// identical to the serving engine's built-in cycle clock.
		sh.core.SetClock(sh.nowNs)
	}
	if cfg.Sim.Metrics != nil {
		// With metrics armed the shell also counts the host-port map
		// traffic: the wrappers swap into the shared set, so data plane
		// and host side meter the same objects.
		maps.ObserveSet(sh.Maps(), cfg.Sim.Metrics)
	}
	return sh, nil
}

// newCore builds the single-queue engine for pl on fresh maps: the
// compiled machine when requested and eligible, the interpreter
// otherwise, and why.
func (sh *Shell) newCore(pl *core.Pipeline, sim hwsim.Config) (hwsim.Core, string, error) {
	env, err := vm.NewEnv(pl.Transformed)
	if err != nil {
		return nil, "", err
	}
	return fastpath.NewCore(pl, sim, env, sh.cfg.FastPath)
}

// nowNs is the single-queue shell's master nanosecond clock: the cycles
// retired pipelines accumulated plus the serving pipeline's, or the
// PinClock value. A multi-queue shell's replicas read the hardware clock
// until an update commits, then continueClock's.
func (sh *Shell) nowNs() uint64 {
	if sh.pinned != nil {
		return *sh.pinned
	}
	return sh.clockAt(sh.cycleBase + sh.core.Cycle())
}

// clockAt is the helper-visible time after `cycles` shell cycles:
// scaled by the shell clock, or the PinClock value.
func (sh *Shell) clockAt(cycles uint64) uint64 {
	if sh.pinned != nil {
		return *sh.pinned
	}
	return uint64(float64(cycles) / sh.cfg.ClockHz * 1e9)
}

// Maps exposes the host-side map interface of the NIC. In multi-queue
// mode this is the merged view: writes before traffic broadcast to
// every replica bank, reads after a run serve the deterministic merge.
func (sh *Shell) Maps() *maps.Set {
	if sh.engine != nil {
		return sh.engine.HostMaps()
	}
	return sh.core.Maps()
}

// Stats returns the lifetime counters of the engines behind the shell,
// whichever they are: the one engine, or every replica of a multi-queue
// shell. Call it between runs, not during one.
func (sh *Shell) Stats() hwsim.Stats {
	if sh.engine != nil {
		var st hwsim.Stats
		for q := 0; q < sh.engine.Queues(); q++ {
			st = st.Add(sh.engine.ReplicaCore(q).Stats())
		}
		return st
	}
	return sh.core.Stats()
}

// FastPath reports whether traffic is served by the compiled fast
// path. A requested fast path that fell back to the interpreter (an
// ineligible configuration) reports false; on a multi-queue shell it
// reflects the replicas' mode.
func (sh *Shell) FastPath() bool {
	_, why := sh.Serving()
	return why == ""
}

// Serving names the engine that serves the next RunLoad and, when that
// is the interpreter, why: the one answer the CLIs print and act on.
func (sh *Shell) Serving() (engine, why string) {
	why = sh.fallback
	if sh.engine != nil {
		why = sh.engine.Fallback()
	}
	if why == "" {
		return "compiled fast path", ""
	}
	return "cycle-accurate interpreter", why
}

// Injector exposes the shell's fault injector (nil without faults).
func (sh *Shell) Injector() *faults.Injector { return sh.inj }

// Report is the traffic-generator view of a run, the measurements of
// Section 5.1.
type Report struct {
	OfferedMpps  float64
	AchievedMpps float64
	OfferedGbps  float64
	AchievedGbps float64
	Sent         uint64
	Received     uint64
	// Lost counts packets dropped by the input queue (back-pressure),
	// not packets the program decided to drop.
	Lost         uint64
	AvgLatencyNs float64
	MaxLatencyNs float64
	Flushes      uint64
	FlushesPerS  float64
	Actions      hwsim.Verdicts
	Cycles       uint64

	// Fault, protection and recovery counters, as the engines counted
	// them (all zero without a fault campaign or a protection level).
	hwsim.Resilience
	// MalformedSent counts generated frames replaced by damaged ones.
	MalformedSent uint64
	// OverflowBursts counts injected ingress bursts.
	OverflowBursts uint64

	// Live-update measurements (all zero unless ScheduleUpdate armed an
	// update that fired during this RunLoad).

	// UpdatesAttempted, UpdatesCompleted and UpdatesRolledBack count
	// update outcomes in this run (at most one update per run today).
	UpdatesAttempted  uint64
	UpdatesCompleted  uint64
	UpdatesRolledBack uint64
	// UpdateStage is the update's final stage ("done", "rolled-back");
	// empty when no update ran.
	UpdateStage string
	// UpdateFailure describes the rollback (empty on success): the
	// failing stage and the typed cause.
	UpdateFailure string
	// MigratedEntries counts the map entries the migration copied, one
	// shell cycle each; CutoverTicks adds the drain tail before them.
	MigratedEntries uint64
	// CanariedPackets counts canary outcomes diffed against the
	// reference interpreter; CanaryDivergences counts mismatches.
	CanariedPackets   uint64
	CanaryDivergences uint64
	// HeldPackets counts the arrivals due within the cutover (the canary
	// serves them first; none is dropped).
	HeldPackets  uint64
	CutoverTicks uint64

	// Multi-queue measurements (QueueCount stays 1 and PerQueue nil on
	// the classic single-pipeline shell).

	// QueueCount is the number of pipeline replicas that served the run.
	QueueCount int
	// PerQueue breaks the run down by replica.
	PerQueue []QueueReport
	// SteerFallbacks counts malformed/non-IP frames the dispatcher
	// steered to the queue-0 catch-all.
	SteerFallbacks uint64
	// MergeConflicts counts map keys mutated by more than one replica
	// bank — zero while flow pinning holds (anything else is a
	// dispatcher bug surfaced by the merge).
	MergeConflicts uint64

	// Multi-tenant measurements (all zero off a multi-tenant device).
	// On a tenant device Sent counts every classified arrival plus
	// fault-injected extras, so the ledger identity Accounted() holds:
	// each arrival lands in exactly one of Received, Lost, Throttled,
	// Quarantined or TenantDownLoss.

	// Throttled counts frames shed by per-tenant token-bucket ingress
	// policing (a tenant exceeding its share loses its own frames, not
	// a neighbour's).
	Throttled uint64
	// Quarantined counts unclassifiable frames steered to the device
	// quarantine bucket because no default tenant was configured. They
	// are counted and traced, never dropped silently.
	Quarantined uint64
	// TenantDownLoss counts frames addressed to a tenant whose pipeline
	// died unrecoverably: the unserved remainder at death plus every
	// later arrival for it.
	TenantDownLoss uint64
	// PerTenant breaks the run down by tenant.
	PerTenant []TenantSlice
}

// QueueReport is one replica's slice of a multi-queue run.
type QueueReport struct {
	// Queue is the replica index.
	Queue int
	// Steered counts arrivals the dispatcher classified to the queue.
	Steered uint64
	// Received counts packets the replica retired.
	Received uint64
	// Lost counts ingress-queue drops (back-pressure), as in Report.
	Lost uint64
	// Flushes counts RAW-hazard flush episodes in the replica.
	Flushes uint64
	// Cycles is the replica's simulated cycle count including its drain
	// tail.
	Cycles uint64
	// AchievedMpps is the replica's own throughput over its cycles.
	AchievedMpps float64
}

// LineRateMpps returns the port's packet rate for a frame size.
func (sh *Shell) LineRateMpps(frameLen int) float64 {
	wire := float64(frameLen+20) * 8
	return linkGbps * 1e9 / wire / 1e6
}

// RunLoad offers `count` packets from next() at `offeredPps` and runs
// until the pipeline drains. The generator paces arrivals in clock
// cycles like the testbed's DPDK generator paces them on the wire. On
// an engine error the report still holds what retired before it.
func (sh *Shell) RunLoad(next func() []byte, count int, offeredPps float64) (Report, error) {
	if offeredPps <= 0 {
		return Report{}, fmt.Errorf("nic: offered rate must be positive")
	}
	// Annotate the run for runtime/trace consumers (-runtime-trace on
	// the CLIs); free when no execution trace is active.
	ctx, endTask := obs.Task(context.Background(), "nic.RunLoad")
	defer endTask()
	defer obs.Region(ctx, "drive")()

	var rep Report
	tr := traffic{offeredPps: offeredPps}
	if sh.inj != nil {
		tr.faults0 = sh.inj.Counters()
		next = sh.inj.WrapTraffic(next)
	}
	var err error
	if sh.engine != nil {
		err = sh.runMulti(&rep, &tr, next, count)
	} else {
		err = sh.runSingle(&rep, &tr, next, count)
	}
	return rep, err
}

// runSingle is the single-queue drive loop: one cycle loop against the
// serving engine, stepping a float `due` accumulator per cycle. The
// fault injector attaches as a value that is nil when not configured; a
// scheduled live update swaps engines at a drain barrier.
func (sh *Shell) runSingle(rep *Report, tr *traffic, next func() []byte, count int) (err error) {
	var (
		run      rss.RunStats // sessions a committed update closed
		accepted uint64       // bytes the serving engine's input queue took
		due      float64
		eng      = sh.core
		inj      = sh.inj
		perPkt   = sh.cfg.ClockHz / tr.offeredPps
	)
	eng.Window(&sh.win) // the run's window opens here
	for tr.sent < count || len(tr.held) > 0 || eng.Busy() {
		if p := sh.pending; p != nil && tr.sent >= p.after && tr.sent < count {
			sh.pending = nil
			rep.UpdatesAttempted++
			b := &coreBarrier{barrier: sh.barrier(p.cfg)}
			res, serr := liveupdate.Swap(b, p.cfg, perPkt, func() []byte { return tr.hold(next, count) })
			if serr != nil {
				err = serr
				break
			}
			rep.noteUpdate(res)
			if res.Err == nil {
				// Commit: book the old engine's session and the canary's,
				// and serve on with the new engine on the master clock.
				eng.Window(&sh.win)
				run.Add(rss.RunStats{MaxCycles: sh.win.Cycles,
					PerQueue: []rss.QueueStats{{AcceptedBytes: accepted, Stats: sh.win}}})
				run.Add(res.Canary)
				sh.cycleBase += eng.Cycle()
				eng, accepted = b.built, 0
				sh.core, sh.prog, sh.fallback = eng, b.prog, b.fallback
				eng.SetClock(sh.nowNs)
			}
			tr.held, due = res.Held, 0
		}
		// Arrivals faster than the clock queue several packets per cycle.
		for due <= 0 && (tr.sent < count || len(tr.held) > 0) {
			if pkt := tr.arrive(next); eng.Inject(pkt) {
				accepted += uint64(len(pkt))
			}
			due += perPkt
		}
		if inj != nil && tr.sent < count && inj.Roll(faults.QueueOverflow) {
			// Ingress overflow burst: a full burst of frames lands in this
			// cycle on top of the paced load. The bounded input queue
			// absorbs what it can and drops the rest — counted, never an
			// error.
			for i := 0; i < inj.BurstLen(); i++ {
				if pkt := tr.take(next); eng.Inject(pkt) {
					accepted += uint64(len(pkt))
				}
				tr.extra++
			}
			inj.Note(faults.QueueOverflow)
		}
		if err = eng.Step(); err != nil {
			break
		}
		due--
	}
	eng.Window(&sh.win)
	last := rss.RunStats{MaxCycles: sh.win.Cycles,
		PerQueue: []rss.QueueStats{{AcceptedBytes: accepted, Stats: sh.win}}}
	if run.PerQueue != nil {
		run.Add(last)
		last = run
	}
	sh.fold(rep, tr, last)
	return err
}

// SaturationMpps ramps the offered rate until packets are lost and
// returns the highest loss-free throughput — how the paper determines
// the maximum sustained rate of a design (e.g. the 29 -> 12 Mpps
// single-flow degradation of Section 5.3).
func (sh *Shell) SaturationMpps(next func() []byte, perStep int, startMpps, stepMpps, maxMpps float64) (float64, error) {
	best := 0.0
	for rate := startMpps; rate <= maxMpps; rate += stepMpps {
		rep, err := sh.RunLoad(next, perStep, rate*1e6)
		if err != nil {
			return 0, err
		}
		if rep.Lost > 0 {
			break
		}
		best = rate
	}
	return best, nil
}

// PinClock fixes the helper-visible time (tests). The pin rides the
// shell's master clock, so it survives a live-update pipeline swap. In
// multi-queue mode the pin applies to every replica (and to replicas
// installed by a later update swap).
func (sh *Shell) PinClock(now uint64) {
	sh.pinned = &now
	if sh.engine != nil {
		sh.engine.SetClock(sh.nowNs)
	}
}

// ScheduleUpdate arms a hitless live update: once RunLoad has offered
// `after` packets, with more to come, the drive loop stops at a drain
// barrier and runs liveupdate.Swap. The update either commits (the new
// program serves all subsequent traffic, with the old engine's map state
// migrated) or rolls back (the old engine serves on, its state
// untouched); either way no packet is dropped by the update itself.
func (sh *Shell) ScheduleUpdate(after int, cfg liveupdate.Config) error {
	if cfg.Prog == nil {
		return fmt.Errorf("nic: live update needs a program")
	}
	if after < 0 {
		return fmt.Errorf("nic: update trigger must be >= 0 packets")
	}
	sh.pending = &pendingUpdate{after: after, cfg: cfg}
	return nil
}
