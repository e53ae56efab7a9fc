// Package liveupdate is the hitless-update controller of the simulated
// NIC: it installs a freshly compiled pipeline behind a running one
// without dropping a packet or losing map state, the "update the NIC
// function like software" workflow that motivates partial
// reconfiguration on real SmartNIC deployments.
//
// The update is a staged state machine driven by the NIC shell's clock
// loop:
//
//	shadow   — compile the new program and instantiate its pipeline
//	           alongside the serving one, host setup included;
//	migrate  — copy the old pipeline's map state through a schema
//	           compatibility check under a per-tick budget, while a
//	           bounded delta log captures writes the data plane commits
//	           mid-copy (replayed against the live values at the end);
//	canary   — mirror a seeded fraction of live traffic to the shadow
//	           and diff every verdict, packet byte and the final map
//	           effects against a reference interpreter running the new
//	           program from the same migrated state;
//	cutover  — hold ingress, drain the old pipeline to a deadline with
//	           exponential backoff, resynchronise the shared maps from
//	           the drained final state, switch atomically, release the
//	           held packets into the new pipeline;
//	verify   — keep diffing a bounded window of post-cutover verdicts
//	           against the reference (counted, never fatal).
//
// Any failure — an incompatible schema, a delta-log overflow, a canary
// divergence, a shadow fault, an expired deadline — rolls back: the old
// pipeline keeps serving, held packets are returned to it, and the
// controller reports a typed *UpdateError naming the failing stage.
package liveupdate

import (
	"fmt"
	"math/rand"

	"ehdl/internal/conformance"
	"ehdl/internal/core"
	"ehdl/internal/ebpf"
	"ehdl/internal/hwsim"
	"ehdl/internal/maps"
	"ehdl/internal/obs"
	"ehdl/internal/vm"
)

// Metric names registered when Config.Metrics is set.
const (
	MetricCanaried       = "liveupdate.canaried_packets"
	metricDivergences    = "liveupdate.canary_divergences"
	MetricMigrated       = "liveupdate.migrated_entries"
	metricDeltaReplayed  = "liveupdate.delta_replayed"
	MetricHeld           = "liveupdate.held_packets"
	MetricMigrationTicks = "liveupdate.migration_ticks"
)

// Mismatch classes carried in KindCanaryDiverge events (Aux).
const (
	// mismatchOutcome: a mirrored packet's verdict, redirect target or
	// final bytes differed from the reference.
	mismatchOutcome uint64 = iota
	// mismatchMaps: the shadow's map state at canary end differed from
	// the reference's.
	mismatchMaps
	// mismatchPostVerify: a post-cutover verdict differed (counted, not
	// fatal — e.g. time-helper skew between the pipelined and the
	// sequential engine).
	mismatchPostVerify
)

// Config parameterises one update attempt.
type Config struct {
	// Prog is the new program to install.
	Prog *ebpf.Program
	// Opts is the compiler configuration for the new pipeline.
	Opts core.Options
	// Sim configures the shadow pipeline (clock, hazard policy,
	// protection, and — for chaos campaigns — its own fault injector;
	// the shell forks the serving campaign by default so the shadow
	// never perturbs the old pipeline's fault sites).
	Sim hwsim.Config
	// Setup populates the new program's maps host-side before migration
	// (defaults, static table entries). Nil skips setup.
	Setup func(*maps.Set) error

	// CanaryFrac is the fraction of live traffic mirrored to the shadow
	// in (0, 1]. 0 means 0.25.
	CanaryFrac float64
	// CanaryPackets is the number of cleanly diffed mirrored packets
	// required to pass the canary. 0 means 32.
	CanaryPackets int
	// CanaryDeadlineTicks bounds the canary stage. 0 means 1<<16.
	CanaryDeadlineTicks uint64
	// MigrateEntriesPerTick is the bulk-copy budget. 0 means 64.
	MigrateEntriesPerTick int
	// DeltaLogCap bounds writes captured during migration. 0 means 4096.
	DeltaLogCap int
	// PostVerifyPackets is the post-cutover conformance window. 0 means
	// 64; negative disables the window.
	PostVerifyPackets int
	// Seed drives the canary mirroring decision. 0 means 1.
	Seed int64

	// Trace, when non-nil, receives KindUpdatePhase and
	// KindCanaryDiverge events.
	Trace *obs.Tracer
	// Metrics, when non-nil, accumulates the liveupdate.* instruments.
	Metrics *obs.Registry
}

func (c Config) canaryFrac() float64 {
	if c.CanaryFrac <= 0 {
		return 0.25
	}
	if c.CanaryFrac > 1 {
		return 1
	}
	return c.CanaryFrac
}

func (c Config) canaryPackets() int {
	if c.CanaryPackets <= 0 {
		return 32
	}
	return c.CanaryPackets
}

func (c Config) canaryDeadline() uint64 {
	if c.CanaryDeadlineTicks == 0 {
		return 1 << 16
	}
	return c.CanaryDeadlineTicks
}

// The cutover drain: its deadline in ticks, how many exponentially
// backed-off drain checks it may take, and the base of that backoff
// schedule (base << attempt-1, the recovery schedule).
const (
	drainDeadlineTicks = 1 << 14
	drainAttempts      = 8
	drainBackoffTicks  = 16
)

func (c Config) migrateBudget() int {
	if c.MigrateEntriesPerTick <= 0 {
		return 64
	}
	return c.MigrateEntriesPerTick
}

func (c Config) deltaCap() int {
	if c.DeltaLogCap <= 0 {
		return 4096
	}
	return c.DeltaLogCap
}

func (c Config) postVerify() int {
	switch {
	case c.PostVerifyPackets < 0:
		return 0
	case c.PostVerifyPackets == 0:
		return 64
	}
	return c.PostVerifyPackets
}

func (c Config) seed() int64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

// Stats is the controller's measurement surface, folded into the NIC
// shell's Report.
type Stats struct {
	// Stage is the current (or final) stage.
	Stage Stage
	// MigratedEntries counts bulk-copied map entries.
	MigratedEntries uint64
	// DeltaReplayed counts delta-log writes replayed after the bulk copy.
	DeltaReplayed uint64
	// CanariedPackets counts mirrored packets diffed against the
	// reference.
	CanariedPackets uint64
	// CanaryDivergences counts canary mismatches (at most 1 before the
	// rollback fires, unless several completions land in one tick).
	CanaryDivergences uint64
	// HeldPackets counts ingress packets held during the cutover drain.
	HeldPackets uint64
	// ReleasedPackets counts held packets released after the switch (or
	// back into the old pipeline on rollback).
	ReleasedPackets uint64
	// PostVerifyChecked counts post-cutover verdicts diffed.
	PostVerifyChecked uint64
	// PostVerifyDivergences counts post-cutover mismatches (non-fatal).
	PostVerifyDivergences uint64
	// MigrationTicks is the length of the migrate stage in shell ticks.
	MigrationTicks uint64
	// CutoverTicks is the length of the cutover stage in shell ticks.
	CutoverTicks uint64
}

// TickResult is what one controller tick asks of the shell.
type TickResult struct {
	// Switched, when non-nil, is the new serving pipeline: the shell
	// must atomically swap its ingress to it and re-register its
	// completion dispatcher.
	Switched *hwsim.Sim
	// Release holds packets the controller buffered during the cutover
	// drain; the shell must inject them — into the new pipeline after a
	// switch, back into the old one after a rollback — before offering
	// new arrivals.
	Release [][]byte
	// Failed, when non-nil, reports the rollback. The old pipeline is
	// already resumed and keeps serving.
	Failed *UpdateError
}

// Controller drives one update attempt. It is driven synchronously by
// the NIC shell's clock loop and is not safe for concurrent use.
type Controller struct {
	cfg   Config
	old   *hwsim.Sim
	clock func() uint64 // the shell's master nanosecond clock

	shadow *hwsim.Sim
	refEnv *vm.Env
	refM   *vm.Machine

	stage     Stage
	failure   *UpdateError
	ticks     uint64
	stageTick uint64

	plan           *plan
	bulk           []entry
	bulkPos        int
	deltas         []delta
	deltaOverflow  bool
	shadowBaseline *maps.SetSnapshot
	refBaseline    *maps.SetSnapshot

	rng *rand.Rand
	// expected keys reference outcomes by the pipeline sequence number of
	// the packet they predict. Flush recall can retire packets out of
	// injection order, so FIFO matching would diff the wrong pairs.
	expected  map[uint64]conformance.Outcome
	mirrored  int
	canaryErr error

	held           [][]byte
	drainAttempt   int
	nextDrainCheck uint64

	postInjected int

	// pending results for the current tick
	switched *hwsim.Sim
	release  [][]byte

	stats Stats
}

// Begin compiles the new program, instantiates the shadow pipeline and
// the reference interpreter, checks map-schema compatibility, captures
// the migration snapshot, and hooks the old pipeline's write stream.
// clock is the shell's master nanosecond clock; the controller latches
// it for the shadow and the reference until cutover so time-dependent
// helpers cannot diverge from pipelining alone. An error here means
// nothing was installed; the old pipeline is untouched.
func Begin(old *hwsim.Sim, cfg Config, clock func() uint64) (*Controller, error) {
	if cfg.Prog == nil {
		return nil, &UpdateError{Stage: StageShadow, Err: fmt.Errorf("liveupdate: no program")}
	}
	if clock == nil {
		clock = old.Now
	}
	c := &Controller{
		cfg:      cfg,
		old:      old,
		clock:    clock,
		stage:    StageShadow,
		rng:      rand.New(rand.NewSource(cfg.seed())),
		expected: make(map[uint64]conformance.Outcome),
	}
	c.event(StageShadow, 0)

	pl, err := core.Compile(cfg.Prog, cfg.Opts)
	if err != nil {
		return nil, &UpdateError{Stage: StageShadow, Err: err}
	}
	shadow, err := hwsim.New(pl, cfg.Sim)
	if err != nil {
		return nil, &UpdateError{Stage: StageShadow, Err: err}
	}
	shadow.KeepData(true)
	latch := clock()
	shadow.SetClock(func() uint64 { return latch })
	if cfg.Setup != nil {
		if err := cfg.Setup(shadow.Maps()); err != nil {
			return nil, &UpdateError{Stage: StageShadow, Err: err}
		}
	}

	refEnv, err := vm.NewEnv(cfg.Prog)
	if err != nil {
		return nil, &UpdateError{Stage: StageShadow, Err: err}
	}
	refEnv.Now = func() uint64 { return latch }
	if cfg.Setup != nil {
		if err := cfg.Setup(refEnv.Maps); err != nil {
			return nil, &UpdateError{Stage: StageShadow, Err: err}
		}
	}
	refM, err := vm.New(cfg.Prog, refEnv)
	if err != nil {
		return nil, &UpdateError{Stage: StageShadow, Err: err}
	}
	c.shadow, c.refEnv, c.refM = shadow, refEnv, refM
	c.shadowBaseline = shadow.Maps().Snapshot()
	c.refBaseline = refEnv.Maps.Snapshot()

	plan, err := buildPlan(old.Maps(), shadow.Maps(), refEnv.Maps)
	if err != nil {
		return nil, &UpdateError{Stage: StageMigrate, Err: err}
	}
	c.plan = plan
	c.bulk = plan.capture()
	old.OnMapWrite(c.logDelta)
	shadow.OnComplete(c.onShadowComplete)
	c.enter(StageMigrate, uint64(len(c.bulk)))
	return c, nil
}

// Active reports whether an update is still in flight.
func (c *Controller) Active() bool {
	return c.stage != StageIdle && c.stage != StageDone && c.stage != StageRolledBack
}

// Stage returns the current stage.
func (c *Controller) Stage() Stage { return c.stage }

// Err returns the rollback report, nil unless StageRolledBack.
func (c *Controller) Err() *UpdateError { return c.failure }

// Stats returns the measurement snapshot.
func (c *Controller) Stats() Stats {
	s := c.stats
	s.Stage = c.stage
	return s
}

// OfferPacket gives the controller first claim on an arriving packet.
// It returns true when the packet was consumed (held during the cutover
// drain); the shell must then NOT inject it. Held packets come back via
// TickResult.Release, in arrival order.
func (c *Controller) OfferPacket(pkt []byte) bool {
	if c.stage != StageCutover {
		return false
	}
	c.held = append(c.held, append([]byte(nil), pkt...))
	c.stats.HeldPackets++
	c.counter(MetricHeld)
	return true
}

// NoteInjected tells the controller the shell injected (and the serving
// pipeline accepted) a packet. During canary a seeded fraction is
// mirrored to the shadow and pre-run on the reference; during
// post-verify every packet in the window is pre-run on the reference.
func (c *Controller) NoteInjected(pkt []byte) {
	switch c.stage {
	case StageCanary:
		if c.mirrored >= c.cfg.canaryPackets() {
			return
		}
		if c.rng.Float64() >= c.cfg.canaryFrac() {
			return
		}
		if !c.shadow.InputFree() {
			return
		}
		want, err := c.runReference(pkt)
		if err != nil {
			c.canaryErr = fmt.Errorf("%w: reference: %v", errShadowFault, err)
			return
		}
		seq := c.shadow.NextSeq()
		if !c.shadow.Inject(append([]byte(nil), pkt...)) {
			return
		}
		c.expected[seq] = want
		c.mirrored++
	case StagePostVerify:
		if c.postInjected >= c.cfg.postVerify() {
			return
		}
		want, err := c.runReference(pkt)
		if err != nil {
			// The reference erroring post-cutover cannot fail the update
			// (the switch already committed); count it as a divergence.
			c.stats.PostVerifyDivergences++
			return
		}
		// The shell notifies immediately after a successful Inject into
		// the serving pipeline (the former shadow), so the packet carries
		// the sequence number just consumed.
		c.expected[c.shadow.NextSeq()-1] = want
		c.postInjected++
	}
}

// NoteCompletion tells the controller a packet retired from the serving
// pipeline. Only the post-verify window consumes it: the verdict is
// diffed against the reference outcome recorded under the packet's
// sequence number at injection.
func (c *Controller) NoteCompletion(r hwsim.Result) {
	if c.stage != StagePostVerify {
		return
	}
	want, ok := c.expected[r.Seq]
	if !ok {
		return
	}
	delete(c.expected, r.Seq)
	got := conformance.Outcome{Action: r.Action, RedirectIfindex: r.RedirectIfindex, Data: r.Data}
	if err := conformance.CompareOutcome(got, want); err != nil {
		c.stats.PostVerifyDivergences++
		c.diverge(int64(r.Seq), mismatchPostVerify)
	}
	c.stats.PostVerifyChecked++
	if c.stats.PostVerifyChecked >= uint64(c.cfg.postVerify()) {
		c.finish()
	}
}

// Tick advances the controller by one shell clock iteration. The shell
// calls it after stepping the serving pipeline and must honour the
// returned TickResult in order: adopt Switched, inject Release, record
// Failed.
func (c *Controller) Tick() TickResult {
	if !c.Active() {
		return TickResult{}
	}
	c.ticks++
	c.switched, c.release = nil, nil
	switch c.stage {
	case StageMigrate:
		c.tickMigrate()
	case StageCanary:
		c.tickCanary()
	case StageCutover:
		c.tickCutover()
	case StagePostVerify:
		if c.ticks-c.stageTick > c.cfg.canaryDeadline() {
			// Traffic ended before the window filled; commit what we have.
			c.finish()
		}
	}
	res := TickResult{Switched: c.switched, Release: c.release, Failed: nil}
	if c.stage == StageRolledBack {
		res.Failed = c.failure
	}
	return res
}

// tickMigrate drains the bulk-copy cursor under the per-tick budget,
// then replays the delta log against the live old maps.
func (c *Controller) tickMigrate() {
	if c.deltaOverflow {
		c.fail(StageMigrate, ErrDeltaOverflow)
		return
	}
	budget := c.cfg.migrateBudget()
	for budget > 0 && c.bulkPos < len(c.bulk) {
		if err := c.bulk[c.bulkPos].apply(); err != nil {
			c.fail(StageMigrate, err)
			return
		}
		c.bulkPos++
		c.stats.MigratedEntries++
		c.counter(MetricMigrated)
		budget--
	}
	if c.bulkPos < len(c.bulk) {
		return
	}
	// Bulk copy complete: replay every write the data plane committed
	// while it ran. The shell steps the old pipeline only between ticks,
	// so no new delta can land during the replay.
	for _, d := range c.deltas {
		if err := c.plan.replay(d); err != nil {
			c.fail(StageMigrate, err)
			return
		}
		c.stats.DeltaReplayed++
		c.counter(metricDeltaReplayed)
	}
	c.deltas = nil
	c.old.OnMapWrite(nil)
	c.bulk = nil
	c.stats.MigrationTicks = c.ticks
	if c.cfg.Metrics != nil {
		c.cfg.Metrics.Histogram(MetricMigrationTicks, obs.ExpBuckets(1, 4, 12)).Observe(c.ticks)
	}
	c.enter(StageCanary, c.stats.MigratedEntries)
}

// tickCanary steps the shadow one cycle and checks progress: a
// divergence or shadow fault rolls back, the packet target passing the
// final map diff enters cutover, the deadline expiring rolls back.
func (c *Controller) tickCanary() {
	if err := c.shadow.Step(); err != nil {
		c.fail(StageCanary, fmt.Errorf("%w: %v", errShadowFault, err))
		return
	}
	if c.canaryErr != nil {
		c.fail(StageCanary, c.canaryErr)
		return
	}
	if c.stats.CanariedPackets >= uint64(c.cfg.canaryPackets()) && c.shadow.Drained() {
		// Every mirrored verdict matched; the map effects must too.
		if err := conformance.CompareMaps(c.refEnv.Maps, c.shadow.Maps()); err != nil {
			c.diverge(obs.NoSeq, mismatchMaps)
			c.stats.CanaryDivergences++
			c.counter(metricDivergences)
			c.fail(StageCanary, fmt.Errorf("%w: map effects: %v", ErrCanaryDiverged, err))
			return
		}
		c.old.Quiesce()
		c.drainAttempt = 1
		c.nextDrainCheck = c.ticks + hwsim.RecoveryBackoff(1, drainBackoffTicks)
		c.enter(StageCutover, c.stats.CanariedPackets)
		return
	}
	if c.ticks-c.stageTick > c.cfg.canaryDeadline() {
		c.fail(StageCanary, errCanaryDeadline)
	}
}

// tickCutover holds ingress (via OfferPacket) while the old pipeline
// drains, checking at exponentially backed-off intervals, then commits
// the switch.
func (c *Controller) tickCutover() {
	if c.shadow.Busy() {
		if err := c.shadow.Step(); err != nil {
			c.fail(StageCutover, fmt.Errorf("%w: %v", errShadowFault, err))
			return
		}
	}
	if c.ticks-c.stageTick > drainDeadlineTicks {
		c.fail(StageCutover, errDrainTimeout)
		return
	}
	if c.ticks < c.nextDrainCheck {
		return
	}
	if !c.old.Drained() || c.shadow.Busy() {
		c.drainAttempt++
		if c.drainAttempt > drainAttempts {
			c.fail(StageCutover, errDrainTimeout)
			return
		}
		c.nextDrainCheck = c.ticks + hwsim.RecoveryBackoff(c.drainAttempt, drainBackoffTicks)
		return
	}
	c.commit()
}

// commit is the atomic switch: wipe the canary's map effects back to
// the post-setup baseline, resynchronise every shared map from the old
// pipeline's drained final state, unlatch the clocks, and hand the
// shadow to the shell with the held packets.
func (c *Controller) commit() {
	if err := c.shadow.Maps().Restore(c.shadowBaseline); err != nil {
		c.fail(StageCutover, err)
		return
	}
	if err := c.refEnv.Maps.Restore(c.refBaseline); err != nil {
		c.fail(StageCutover, err)
		return
	}
	if err := c.plan.resync(); err != nil {
		c.fail(StageCutover, err)
		return
	}
	c.shadow.SetClock(c.clock)
	c.refEnv.Now = c.clock
	c.expected = make(map[uint64]conformance.Outcome)
	c.shadow.OnComplete(nil) // the shell re-registers its dispatcher
	c.stats.CutoverTicks = c.ticks - c.stageTick
	c.switched = c.shadow
	c.release = c.held
	c.stats.ReleasedPackets += uint64(len(c.held))
	c.held = nil
	if c.cfg.postVerify() > 0 {
		c.enter(StagePostVerify, c.stats.ReleasedPackets)
	} else {
		c.finish()
	}
}

// finish commits the update terminally.
func (c *Controller) finish() {
	c.shadow.KeepData(false)
	c.expected = nil
	c.enter(StageDone, c.stats.PostVerifyChecked)
}

// fail rolls the update back: the old pipeline resumes (its write hook
// removed, its ingress reopened), held packets are queued for release
// back into it, and the shadow is abandoned.
func (c *Controller) fail(stage Stage, err error) {
	c.failure = &UpdateError{Stage: stage, Err: err}
	c.old.OnMapWrite(nil)
	c.old.Resume()
	if c.shadow != nil {
		c.shadow.OnComplete(nil)
	}
	c.release = append(c.release, c.held...)
	c.stats.ReleasedPackets += uint64(len(c.held))
	c.held = nil
	c.stage = StageRolledBack
	c.event(StageRolledBack, uint64(stage))
}

// logDelta is the old pipeline's OnMapWrite hook during migration.
func (c *Controller) logDelta(mapID int, key string, deleted bool) {
	if _, migrates := c.plan.byOld[mapID]; !migrates {
		return
	}
	if len(c.deltas) >= c.cfg.deltaCap() {
		c.deltaOverflow = true
		return
	}
	c.deltas = append(c.deltas, delta{mapID: mapID, key: key, deleted: deleted})
}

// onShadowComplete diffs one mirrored packet against the reference
// outcome recorded under its sequence number at injection.
func (c *Controller) onShadowComplete(r hwsim.Result) {
	if c.stage != StageCanary {
		return
	}
	want, ok := c.expected[r.Seq]
	if !ok {
		return
	}
	delete(c.expected, r.Seq)
	got := conformance.Outcome{Action: r.Action, RedirectIfindex: r.RedirectIfindex, Data: r.Data}
	if err := conformance.CompareOutcome(got, want); err != nil {
		c.stats.CanaryDivergences++
		c.counter(metricDivergences)
		c.diverge(int64(r.Seq), mismatchOutcome)
		if c.canaryErr == nil {
			c.canaryErr = fmt.Errorf("%w: packet %d: %v", ErrCanaryDiverged, r.Seq, err)
		}
		return
	}
	c.stats.CanariedPackets++
	c.counter(MetricCanaried)
}

// runReference executes one packet on the reference interpreter.
func (c *Controller) runReference(pkt []byte) (conformance.Outcome, error) {
	p := vm.NewPacket(append([]byte(nil), pkt...))
	res, err := c.refM.Run(p)
	if err != nil {
		return conformance.Outcome{}, err
	}
	return conformance.Outcome{
		Action:          res.Action,
		RedirectIfindex: res.RedirectIfindex,
		Data:            append([]byte(nil), p.Bytes()...),
	}, nil
}

// enter transitions to a stage and emits the phase event.
func (c *Controller) enter(stage Stage, detail uint64) {
	c.stage = stage
	c.stageTick = c.ticks
	c.event(stage, detail)
}

// event emits one KindUpdatePhase event.
func (c *Controller) event(stage Stage, detail uint64) {
	if c.cfg.Trace == nil {
		return
	}
	c.cfg.Trace.Emit(obs.Event{
		Cycle: c.old.Cycle(),
		Kind:  obs.KindUpdatePhase,
		Seq:   obs.NoSeq,
		Stage: obs.NoStage,
		Map:   obs.NoMap,
		Aux:   uint64(stage),
		Aux2:  detail,
	})
}

// diverge emits one KindCanaryDiverge event.
func (c *Controller) diverge(seq int64, mismatch uint64) {
	if c.cfg.Trace == nil {
		return
	}
	c.cfg.Trace.Emit(obs.Event{
		Cycle: c.old.Cycle(),
		Kind:  obs.KindCanaryDiverge,
		Seq:   seq,
		Stage: obs.NoStage,
		Map:   obs.NoMap,
		Aux:   mismatch,
	})
}

// counter bumps one named metric when a registry is attached.
func (c *Controller) counter(name string) {
	if c.cfg.Metrics != nil {
		c.cfg.Metrics.Counter(name).Inc()
	}
}
