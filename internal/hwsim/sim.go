// Package hwsim executes compiled eHDL pipelines cycle by cycle.
//
// It is the repository's stand-in for the Alveo U50 FPGA: the generated
// pipeline IR is advanced one stage per clock, stage-enable signals
// implement the predicated control flow (Section 3.5 of the paper), and
// the map consistency machinery — WAR write shadows, RAW Flush
// Evaluation Blocks with elastic-buffer reload, and atomic primitives —
// follows Section 4.1. Packet framing geometry (Section 4.2) governs
// injection pacing and latency; the architectural semantics are shared
// with the reference interpreter (internal/vm) so results are
// differentially testable.
package hwsim

import (
	"errors"
	"fmt"
	"math/rand"

	"ehdl/internal/core"
	"ehdl/internal/ebpf"
	"ehdl/internal/faults"
	"ehdl/internal/maps"
	"ehdl/internal/obs"
	"ehdl/internal/protect"
	"ehdl/internal/vm"
)

// HazardPolicy selects how per-flow RAW hazards are handled.
type HazardPolicy int

// Hazard policies.
const (
	// PolicyFlush discards and re-executes younger packets when a write
	// hits an unconfirmed read (the paper's approach).
	PolicyFlush HazardPolicy = iota
	// PolicyStall conservatively bubbles the pipeline at every read with
	// potentially conflicting packets ahead, the FlowBlaze-style
	// alternative the paper evaluates and rejects.
	PolicyStall
)

// The pipeline's fixed hazard and bounds behaviour: the dead time after
// a flush before victims re-enter (the paper's K overhead of 4 cycles),
// and the verdict the hardware bounds check applies when an enabled
// stage accesses past the packet end.
const (
	flushReloadCycles = 4
	oobAction         = ebpf.XDPDrop
)

// Config parameterises a simulation.
type Config struct {
	// ClockHz is the pipeline clock. 0 means 250 MHz.
	ClockHz float64
	// Policy selects flush (default) or stall hazard handling.
	Policy HazardPolicy
	// InputQueuePackets bounds the ingress queue. 0 means 4096.
	InputQueuePackets int
	// Faults, when non-nil, injects deterministic hardware faults (SEU
	// bit flips in registers, stack bytes, packet data and map entries,
	// plus forced flush storms) every cycle. It also switches the
	// pipeline into degraded-execution mode: a packet whose fault-
	// corrupted state makes an operation unexecutable retires as
	// XDP_ABORTED instead of erroring the simulation.
	Faults *faults.Injector
	// WatchdogCycles trips a livelock error when no packet retires for
	// this many cycles while work remains in flight — the hardware
	// watchdog against stall-policy and flush-reload livelock. 0
	// disables the watchdog. With Protection enabled a trip triggers a
	// drain-and-restart recovery instead of ending the simulation.
	WatchdogCycles int

	// Protection selects the map-memory codec (none, parity, ECC). Any
	// level other than none also arms the background scrubber and the
	// checkpointed drain-and-restart recovery sequence.
	Protection protect.Level
	// ScrubCyclesPerWord is the scrubber budget: one protected word is
	// checked every this many clock cycles. 0 means 8.
	ScrubCyclesPerWord int
	// MaxRecoveries bounds drain-and-restart attempts between clean
	// scrub passes; exceeding it ends the run with a recovery error. 0
	// means 8; negative means unbounded.
	MaxRecoveries int
	// RecoveryBackoffCycles is the base of the exponential input-hold
	// schedule after a recovery (base << attempt-1). 0 means 256.
	RecoveryBackoffCycles int
	// RecoveryJitterSeed, when non-zero, adds a seeded jitter in
	// [0, RecoveryBackoffCycles) to every recovery backoff so that
	// replicas or fleet devices faulted on the same cycle do not re-
	// enter service in lockstep. 0 (the default) keeps the exact
	// deterministic schedule, preserving existing golden runs. The
	// jittered hold is charged to RecoveryBackoffCycles accounting
	// exactly, and two simulators with the same seed draw the same
	// jitter sequence.
	RecoveryJitterSeed int64

	// Trace, when non-nil, receives the cycle-level event stream: frame
	// movement through stages, predicate outcomes, WAR-shadow captures,
	// flush episodes, map port operations, verdicts and the
	// protection/recovery machinery. Nil (the default) keeps the hot
	// path free of instrumentation beyond one pointer comparison.
	Trace *obs.Tracer
	// Metrics, when non-nil, accumulates pipeline metrics under the
	// hwsim.* names (see the Metric* constants). Nil disables metric
	// accounting entirely.
	Metrics *obs.Registry
}

// Clock returns the pipeline clock in Hz, the default resolved.
func (c *Config) Clock() float64 {
	if c.ClockHz <= 0 {
		return 250e6
	}
	return c.ClockHz
}

// QueueDepth returns the ingress queue bound, the default resolved.
func (c *Config) QueueDepth() int {
	if c.InputQueuePackets <= 0 {
		return 4096
	}
	return c.InputQueuePackets
}

func (c *Config) scrubCyclesPerWord() int {
	if c.ScrubCyclesPerWord <= 0 {
		return 8
	}
	return c.ScrubCyclesPerWord
}

func (c *Config) maxRecoveries() int {
	switch {
	case c.MaxRecoveries == 0:
		return 8
	case c.MaxRecoveries < 0:
		return 0 // unbounded
	}
	return c.MaxRecoveries
}

// Result reports one packet's trip through the pipeline.
type Result struct {
	Seq             uint64
	Action          ebpf.XDPAction
	RedirectIfindex uint32
	Data            []byte
	LatencyCycles   uint64
	Flushed         int // times this packet was flushed and re-executed
}

// Resilience holds the fault, protection and recovery counters of a
// run: the engines count them in Stats, and nic.Report carries them as
// they are. Protection and recovery counters are all zero at LevelNone.
type Resilience struct {
	// FaultsInjected counts faults the injector applied inside the
	// pipeline (SEU bit flips and forced flush storms).
	FaultsInjected uint64
	// MalformedDropped counts packets whose verdict was forced by the
	// hardware bounds check (out-of-bounds packet access), the path
	// malformed ingress traffic takes. A private stage run ahead of the
	// clock (see tables.go) counts its fault before the packet stands
	// there and takes it back if the packet is recalled or aborted first,
	// so the counter is exact whenever the engine is drained — which is
	// where every Window is closed (RunLoad, live-update cutover) — and
	// leads by at most the packets in flight in between.
	MalformedDropped uint64
	// QueueOverflows counts episodes in which the ingress queue hit its
	// bound (edge-triggered; Stats.QueueDrops counts individual packets).
	QueueOverflows uint64
	// WatchdogTrips counts livelock detections by the watchdog.
	WatchdogTrips uint64

	// CorrectedWords counts single-bit upsets corrected in place by the
	// ECC read port or the scrubber.
	CorrectedWords uint64
	// UncorrectableWords counts detected errors beyond the codec's
	// correction capability (each one triggers a recovery).
	UncorrectableWords uint64
	// ScrubPasses counts completed background-scrubber sweeps.
	ScrubPasses uint64
	// CheckpointsTaken counts known-good map snapshots recorded.
	CheckpointsTaken uint64
	// Recoveries counts drain-and-restart sequences performed.
	Recoveries uint64
	// RecoveryAborted counts in-flight packets drained as XDP_ABORTED
	// by recoveries (a subset of Actions[XDPAborted]).
	RecoveryAborted uint64
	// RecoveryBackoffCycles accumulates the input-hold time charged by
	// the exponential backoff schedule.
	RecoveryBackoffCycles uint64
}

// Add folds o's counters into r.
func (r *Resilience) Add(o Resilience) {
	r.FaultsInjected += o.FaultsInjected
	r.MalformedDropped += o.MalformedDropped
	r.QueueOverflows += o.QueueOverflows
	r.WatchdogTrips += o.WatchdogTrips
	r.CorrectedWords += o.CorrectedWords
	r.UncorrectableWords += o.UncorrectableWords
	r.ScrubPasses += o.ScrubPasses
	r.CheckpointsTaken += o.CheckpointsTaken
	r.Recoveries += o.Recoveries
	r.RecoveryAborted += o.RecoveryAborted
	r.RecoveryBackoffCycles += o.RecoveryBackoffCycles
}

// sub takes o's counters out of r.
func (r *Resilience) sub(o Resilience) {
	r.FaultsInjected -= o.FaultsInjected
	r.MalformedDropped -= o.MalformedDropped
	r.QueueOverflows -= o.QueueOverflows
	r.WatchdogTrips -= o.WatchdogTrips
	r.CorrectedWords -= o.CorrectedWords
	r.UncorrectableWords -= o.UncorrectableWords
	r.ScrubPasses -= o.ScrubPasses
	r.CheckpointsTaken -= o.CheckpointsTaken
	r.Recoveries -= o.Recoveries
	r.RecoveryAborted -= o.RecoveryAborted
	r.RecoveryBackoffCycles -= o.RecoveryBackoffCycles
}

// Stats aggregates a simulation run.
type Stats struct {
	Cycles         uint64
	Injected       uint64
	Completed      uint64
	QueueDrops     uint64
	Flushes        uint64
	FlushedPackets uint64
	StallCycles    uint64
	Actions        Verdicts
	LatencySum     uint64
	LatencyMax     uint64

	Resilience

	// AbortedFaults counts packets retired as XDP_ABORTED because
	// injected faults made their state unexecutable.
	AbortedFaults uint64
	// WordsChecked counts protected-word syndrome decodes (lookup path
	// and scrubber combined); ScrubWords counts the scrubber's share.
	WordsChecked uint64
	ScrubWords   uint64
}

// Retire counts one retirement into an engine's live counters.
func (s *Stats) Retire(a ebpf.XDPAction, latency uint64) {
	s.Completed++
	s.LatencySum += latency
	if latency > s.LatencyMax {
		s.LatencyMax = latency
	}
	s.Actions.Add(a, 1)
}

// Snapshot is Core.Stats over an engine's live counters s and window
// base: a copy of the counters so far, frozen while the engine keeps
// counting.
func (s *Stats) Snapshot(base *Stats) Stats {
	out := *s
	out.LatencyMax = max(out.LatencyMax, base.LatencyMax)
	return out
}

// Add returns the sum of two stats snapshots, field by field. The NIC
// shell uses it to fold a retired pipeline's counters into the running
// aggregate across a live update.
func (s Stats) Add(o Stats) Stats {
	out := s
	out.Cycles += o.Cycles
	out.Injected += o.Injected
	out.Completed += o.Completed
	out.QueueDrops += o.QueueDrops
	out.Flushes += o.Flushes
	out.FlushedPackets += o.FlushedPackets
	out.StallCycles += o.StallCycles
	out.LatencySum += o.LatencySum
	if o.LatencyMax > out.LatencyMax {
		out.LatencyMax = o.LatencyMax
	}
	out.Actions.Merge(o.Actions)
	out.Resilience.Add(o.Resilience)
	out.AbortedFaults += o.AbortedFaults
	out.WordsChecked += o.WordsChecked
	out.ScrubWords += o.ScrubWords
	return out
}

// CloseWindow is Core.Window over an engine's live counters s: w
// receives what accumulated since base, base advances to s, and the
// latency high-water mark restarts — so s.LatencyMax is always the open
// window's own and base.LatencyMax the maximum over the closed ones.
func (s *Stats) CloseWindow(base, w *Stats) {
	*w = *s
	w.Actions = s.Actions.since(base.Actions)
	w.Cycles -= base.Cycles
	w.Injected -= base.Injected
	w.Completed -= base.Completed
	w.QueueDrops -= base.QueueDrops
	w.Flushes -= base.Flushes
	w.FlushedPackets -= base.FlushedPackets
	w.StallCycles -= base.StallCycles
	w.LatencySum -= base.LatencySum
	w.Resilience.sub(base.Resilience)
	w.AbortedFaults -= base.AbortedFaults
	w.WordsChecked -= base.WordsChecked
	w.ScrubWords -= base.ScrubWords
	closed := max(base.LatencyMax, s.LatencyMax)
	*base = *s
	base.LatencyMax = closed
	s.LatencyMax = 0
}

// Mpps converts the completed-packet count to millions of packets per
// second at the configured clock.
func (s Stats) Mpps(clockHz float64) float64 {
	if s.Cycles == 0 {
		return 0
	}
	seconds := float64(s.Cycles) / clockHz
	return float64(s.Completed) / seconds / 1e6
}

// warShadow lets older in-flight packets keep reading the pre-write
// value of a map entry for WARDepth cycles after a younger packet's
// write (the delay registers of Figure 6).
type warShadow struct {
	mapID     int
	key       string
	oldValue  []byte // nil: the entry did not exist
	hadEntry  bool
	writerSeq uint64
	expires   uint64 // cycle after which the shadow is gone
}

// Sim is one instantiated pipeline.
type Sim struct {
	pl   *core.Pipeline
	cfg  Config
	env  *vm.Env
	exec *vm.ExecContext

	frameBytes int
	stages     stageReg
	queue      jobRing
	reload     jobRing // flush victims awaiting re-entry
	seq        uint64
	cycle      uint64

	// The job pool (see job.go): retired jobs awaiting reuse, linked
	// through job.nextFree, and how many jobs this Sim ever allocated —
	// bounded by the pipeline depth plus the ingress queue bound.
	free          *job
	jobsAllocated int
	// Scratch reused across calls: flush victims, fault targets, and
	// the helper key/value arguments of the map call in progress.
	victims []*job
	targets []*job
	keyBuf  []byte
	valBuf  []byte

	// Stall machinery: stages below stallPoint hold while the condition
	// drains. -1 means no stall.
	stallPoint   int
	reloadDelay  int // dead cycles before reload re-entry
	stallDrainTo int // for PolicyStall: hold until stages [stallPoint, stallDrainTo] empty

	injectGap int // cycles until the input accepts the next packet

	queueFull  bool   // last Inject hit the bound (overflow episode edge)
	lastRetire uint64 // cycle of the last packet retirement (watchdog)

	shadows []warShadow

	maps []mapUnit // indexed by mapID (tables.go)
	// elasticStage marks the flush re-entry stages, where a packet's
	// replay state is captured on entry.
	elasticStage []bool

	// The execution tables (tables.go), built once: every stage's ops in
	// one slice (stage t's are ops[opOff[t]:opOff[t+1]]), the stages the
	// execute loop visits, and per visited stage the last stage of the
	// burst of private stages that runs with it; generic marks the Sim
	// whose ops carry every hook (compileOp), oneBurst the one whose whole
	// table is stage 0's burst (newSim). edgeLow is the stall point this
	// cycle's clock edge honoured: stages below it held.
	ops      []microOp
	opOff    []int
	visit    []uint64
	burstEnd []int
	generic  bool
	oneBurst bool
	edgeLow  int
	// [stackLo, stackHi) bounds the stack bytes a packet can dirty: what
	// arming clears and a snapshot copies (stackWriteExtent).
	stackLo, stackHi int

	// Protection and recovery state: the per-map codec wrappers
	// (indexed by mapID), the background scrubber, the last known-good
	// checkpoint, and the bounded-retry bookkeeping. recoveryHold gates
	// the input while the post-recovery backoff elapses.
	protected            []*maps.Protected
	scrubber             *protect.Scrubber
	checkpoint           *maps.SetSnapshot
	recoveryAttempts     int
	recoveryHold         uint64
	handledUncorrectable uint64
	// jitterRng draws the seeded recovery-backoff jitter; nil keeps the
	// exact exponential schedule. It is seeded on the first recovery:
	// most runs never recover, and a source costs ~5 KB to build.
	jitterRng *rand.Rand

	// stats are the live counters; winBase is their value when the open
	// Window began (see Stats.CloseWindow).
	stats, winBase Stats
	onComplete     func(Result)
	keepData       bool

	// probes is the observability surface, nil unless Config.Trace or
	// Config.Metrics opted in (see trace.go).
	probes *probes

	// strictErr is the first soundness violation (a replay past a
	// committed map effect) seen this run; Step returns it.
	strictErr error
}

// New instantiates a pipeline simulation with fresh maps.
func New(pl *core.Pipeline, cfg Config) (*Sim, error) {
	env, err := vm.NewEnv(pl.Transformed)
	if err != nil {
		return nil, err
	}
	return NewWithEnv(pl, cfg, env)
}

// NewWithEnv instantiates a simulation over an existing environment
// (shared maps, custom clock).
func NewWithEnv(pl *core.Pipeline, cfg Config, env *vm.Env) (*Sim, error) {
	return newSim(pl, cfg, env, false)
}

// newSim builds a Sim and its execution tables. With oneBurst the map
// units carry no hazard geometry — no flush, no write delay, no elastic
// stage — and the table is one burst from stage 0: the executor of a
// Burst, which has no clock of its own to offer the time helpers.
func newSim(pl *core.Pipeline, cfg Config, env *vm.Env, oneBurst bool) (*Sim, error) {
	if len(pl.Stages) == 0 {
		return nil, fmt.Errorf("hwsim: empty pipeline")
	}
	mem, err := vm.NewMemSpace(pl.Transformed, env.Maps)
	if err != nil {
		return nil, fmt.Errorf("hwsim: %w", err)
	}
	s := &Sim{
		pl:           pl,
		cfg:          cfg,
		env:          env,
		exec:         &vm.ExecContext{Env: env, Mem: mem},
		frameBytes:   pl.FrameBytes(),
		stages:       newStageReg(len(pl.Stages)),
		stallPoint:   -1,
		stallDrainTo: -1,
		maps:         make([]mapUnit, len(pl.Transformed.Maps)),
		elasticStage: make([]bool, len(pl.Stages)),
		oneBurst:     oneBurst,
	}
	blocks := make([]*core.MapBlock, len(s.maps)) // nil for a map the pipeline never touches
	if !oneBurst {
		for i := range pl.Maps {
			blocks[pl.Maps[i].MapID] = &pl.Maps[i]
		}
	}
	for id, spec := range pl.Transformed.Maps {
		s.maps[id] = newMapUnit(spec, blocks[id], len(pl.Stages))
		if u := &s.maps[id]; u.needsFlush && u.flushFrom > 0 {
			s.elasticStage[u.flushFrom] = true
		}
		if spec.KeySize > len(s.keyBuf) {
			s.keyBuf = make([]byte, spec.KeySize)
		}
		if spec.ValueSize > len(s.valBuf) {
			s.valBuf = make([]byte, spec.ValueSize)
		}
	}
	if env.Now == nil && !oneBurst {
		s.SetClock(nil)
	}
	s.initProtection()
	if cfg.Trace != nil || cfg.Metrics != nil {
		s.probes = newProbes(cfg.Trace, cfg.Metrics, env.Maps.Len(), len(pl.Stages))
	}
	if err := s.buildTables(); err != nil {
		return nil, err
	}
	return s, nil
}

// Maps exposes the simulated NIC's map memory (the host interface).
func (s *Sim) Maps() *maps.Set { return s.env.Maps }

// Stats returns a copy of the counters so far (see Stats.Snapshot).
func (s *Sim) Stats() Stats {
	s.syncProtectionStats()
	return s.stats.Snapshot(&s.winBase)
}

// Window returns the counters accumulated since the previous Window
// call and opens the next window (see Core).
func (s *Sim) Window(w *Stats) {
	s.syncProtectionStats()
	s.stats.CloseWindow(&s.winBase, w)
}

// Cycle returns the current clock cycle.
func (s *Sim) Cycle() uint64 { return s.cycle }

// OnComplete registers a callback invoked as packets retire.
func (s *Sim) OnComplete(fn func(Result)) { s.onComplete = fn }

// KeepData makes results carry the final packet bytes.
func (s *Sim) KeepData(keep bool) { s.keepData = keep }

// InputFree reports whether the ingress can accept a packet this cycle.
func (s *Sim) InputFree() bool {
	return s.queue.len() < s.cfg.QueueDepth()
}

// Inject queues a packet for processing. It returns false (and counts a
// drop) when the input queue is full.
func (s *Sim) Inject(data []byte) bool {
	if !s.InputFree() {
		s.stats.QueueDrops++
		if !s.queueFull {
			s.queueFull = true
			s.stats.QueueOverflows++
		}
		if s.probes != nil {
			s.probes.onQueueDrop(s.cycle, len(data))
		}
		return false
	}
	s.queueFull = false
	frames := (len(data) + s.frameBytes - 1) / s.frameBytes
	if frames < 1 {
		frames = 1
	}
	j := s.acquire(data, frames)
	s.seq++
	s.queue.pushBack(j)
	s.stats.Injected++
	if s.probes != nil {
		s.probes.onInject(s.cycle, j.seq, len(data), frames)
	}
	return true
}

func setBit(b []uint64, i int)      { b[uint(i)/64] |= 1 << (uint(i) % 64) }
func hasBit(b []uint64, i int) bool { return b[uint(i)/64]&(1<<(uint(i)%64)) != 0 }

// Busy reports whether any work remains in flight.
func (s *Sim) Busy() bool {
	return s.queue.len() > 0 || s.reload.len() > 0 || s.stages.count() > 0
}

// RunToCompletion steps the clock until the pipeline drains, with a
// safety bound.
func (s *Sim) RunToCompletion(maxCycles uint64) error {
	for n := uint64(0); s.Busy(); n++ {
		if n >= maxCycles {
			return fmt.Errorf("hwsim: pipeline did not drain within %d cycles", maxCycles)
		}
		if err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Step advances the pipeline by one clock cycle.
func (s *Sim) Step() error {
	s.cycle++
	s.stats.Cycles++
	if s.recoveryEnabled() && s.checkpoint == nil {
		// Initial checkpoint, taken lazily on the first cycle so it
		// captures the host's setup-time map population but no faults.
		s.takeCheckpoint()
	}
	s.expireShadows()
	s.applyFaults()
	s.tickScrubber()

	n := len(s.pl.Stages)

	// Retire the packet leaving the final stage.
	if j := s.stages.at(n - 1); j != nil {
		if s.probes != nil {
			s.probes.onStageExit(s.cycle, j, n-1)
		}
		s.stages.put(n-1, nil)
		s.complete(j)
	}

	// The clock edge, honouring an active stall point: stages at or
	// above the point advance, stages below hold.
	low := 0
	if s.stallPoint >= 0 {
		low = s.stallPoint
		s.stats.StallCycles++
	}
	s.edgeLow = low
	s.stages.advance(low)
	if s.probes != nil {
		for t := s.stages.oldest(); t > low; t = s.stages.prevOccupied(t) {
			j := s.stages.at(t)
			s.probes.onStageExit(s.cycle, j, t-1)
			s.probes.onStageEnter(s.cycle, j, t)
		}
	}

	// Feed the stall point from the reload queue (after the dead time)
	// or release the stall when it has drained.
	if s.stallPoint >= 0 {
		s.serviceStall()
	}
	if s.stallPoint < 0 {
		s.injectFromQueue()
	}

	// Execute stage operations, oldest packets first so same-cycle
	// map effects resolve in age order. Only a stage another packet can
	// see into is visited; what a packet does in between ran with its
	// last visit (tables.go).
	stallPolicy := s.cfg.Policy == PolicyStall
	for t := s.stages.prevIn(s.visit, n); t >= 0; t = s.stages.prevIn(s.visit, t) {
		j := s.stages.at(t)
		if j.execStage >= t {
			continue
		}
		// A reader held by PolicyStall defers its stage until release.
		if stallPolicy && t == s.stallPoint-1 {
			continue
		}
		j.stage = t
		j.execStage = t
		if err := s.execStage(j, t); err != nil {
			if s.cfg.Faults != nil || errors.Is(err, errUncorrectableAccess) {
				// Degraded execution: the hardware has no error channel,
				// so a packet whose fault-corrupted state makes an op
				// unexecutable — or whose map entry decoded as
				// uncorrectable — latches XDP_ABORTED and keeps flowing.
				j.done = true
				j.action = ebpf.XDPAborted
				s.stats.AbortedFaults++
				continue
			}
			return err
		}
	}
	if s.probes != nil {
		s.probes.endCycle(s.stages.count(), s.queue.len())
	}
	if s.strictErr != nil {
		return s.strictErr
	}
	if err := s.maybeRecover(); err != nil {
		return err
	}
	if err := s.checkWatchdog(); err != nil {
		if s.recoveryEnabled() && errors.Is(err, errLivelock) {
			// The watchdog's reset line feeds the same drain-and-restart
			// sequence an uncorrectable word does.
			return s.recoverNow(err.Error())
		}
		return err
	}
	return nil
}

// serviceStall feeds flush victims back in at the stall point and lifts
// the stall once everything drained.
func (s *Sim) serviceStall() {
	if s.reloadDelay > 0 {
		s.reloadDelay--
		return
	}
	if s.reload.len() > 0 {
		if s.stages.at(s.stallPoint) == nil {
			j := s.reload.popFront()
			s.stages.put(s.stallPoint, j)
			j.stage = s.stallPoint
			j.execStage = s.stallPoint - 1 // execute this stage now
			if s.probes != nil {
				s.probes.onStageEnter(s.cycle, j, s.stallPoint)
			}
		}
		return
	}
	if s.stallDrainTo >= 0 {
		// PolicyStall: wait until the hazard window is empty.
		if s.stages.prevOccupied(s.stallDrainTo+1) >= s.stallPoint {
			return
		}
		s.stallDrainTo = -1
	}
	s.stallPoint = -1
	if s.probes != nil {
		s.probes.onFlushEnd(s.cycle)
	}
}

// injectFromQueue moves the next queued packet into stage 0, honouring
// multi-frame pacing: an F-frame packet occupies the input for F cycles.
func (s *Sim) injectFromQueue() {
	if s.cycle < s.recoveryHold {
		// Post-recovery backoff: the input holds in reset while the
		// scrubber gets a chance to prove the store healthy again.
		return
	}
	if s.injectGap > 0 {
		s.injectGap--
		return
	}
	if s.queue.len() == 0 || s.stages.at(0) != nil {
		return
	}
	j := s.queue.popFront()
	s.stages.put(0, j)
	j.stage = 0
	j.execStage = -1
	s.injectGap = j.frames - 1
	if s.probes != nil {
		s.probes.onStageEnter(s.cycle, j, 0)
	}
}

// complete retires a packet and returns its job to the pool. The caller
// has already unlinked j from the stage or queue that held it, and
// Result carries copies only, so nothing refers to the job afterwards.
func (s *Sim) complete(j *job) {
	if s.cfg.Faults != nil && j.action > ebpf.XDPRedirect {
		// A fault-corrupted verdict register leaves the legal XDP range;
		// the shell treats any unknown verdict as an abort, like the
		// kernel does.
		j.action = ebpf.XDPAborted
	}
	latency := s.cycle - j.injectedAt
	s.lastRetire = s.cycle
	s.stats.Retire(j.action, latency)
	if s.probes != nil {
		s.probes.onVerdict(s.cycle, j, latency)
	}
	if s.onComplete != nil {
		res := Result{
			Seq:             j.seq,
			Action:          j.action,
			RedirectIfindex: j.redirect,
			LatencyCycles:   latency,
			Flushed:         j.flushed,
		}
		if s.keepData {
			res.Data = append([]byte(nil), j.st.Pkt.Bytes()...)
		}
		s.onComplete(res)
	}
	s.clearReads(j)
	s.release(j)
}

// expireShadows drops WAR shadows whose window has passed.
func (s *Sim) expireShadows() {
	out := s.shadows[:0]
	for _, sh := range s.shadows {
		if s.cycle <= sh.expires {
			out = append(out, sh)
		}
	}
	s.shadows = out
}

// flushVictims implements the Flush Evaluation Block's verdict
// (Section 4.1.2): discard and replay the younger packets whose stale
// read the write invalidated. Two groups are recalled, preserving
// per-key sequential order without replaying committed side effects:
//
//   - packets in [from, writeStage) whose unconfirmed read matches the
//     written key (the stale readers);
//   - every packet that has not yet reached the map's first read stage:
//     it may carry the same key, and letting it run ahead of the
//     re-injected victims would reorder same-key accesses. Such packets
//     cannot have committed map effects past the elastic buffer, so
//     their replay is side-effect free.
//
// When force is set (fault injection: a spurious Flush Evaluation
// verdict), the flush proceeds even without a matching stale reader;
// packets whose replay would repeat committed map effects are left
// flowing instead of recalled, so a forced flush is always safe.
func (s *Sim) flushVictims(from, writeStage, mapID int, key []byte, force bool) {
	minRead := min(writeStage, s.maps[mapID].firstRead)
	matched := false
	victims := s.victims[:0]
	for t := s.stages.prevOccupied(writeStage); t >= from; t = s.stages.prevOccupied(t) {
		j := s.stages.at(t)
		if j.hasRead(mapID, key) {
			matched = true
		} else if t > minRead || (t == minRead && j.execStage >= minRead) {
			// Already past the read (different key, or the read path was
			// disabled): safe to keep flowing ahead.
			continue
		}
		j.stage = t // the shift may have outrun the execution bookkeeping
		victims = append(victims, j)
		s.stages.put(t, nil)
	}
	s.victims = victims
	if !matched && !force {
		// No stale reader after all: put the recalled packets back.
		for _, v := range victims {
			s.stages.put(v.stage, v)
		}
		return
	}
	// Victims were collected from high to low stages, i.e. oldest first:
	// re-injecting in this order preserves the pipeline's relative order.
	kept := victims[:0]
	for _, v := range victims {
		if from > 0 && v.stage == from && v.execStage < from {
			// Recalled on arrival at the elastic-buffer stage, before its
			// ops (and the snapshot capture) ran: the current state is the
			// entering state.
			v.snapshot = s.capture(v, &v.elastic)
		}
		snap, committed := v.snapshot, v.commits
		if from == 0 {
			snap = nil // replay from the pipeline input
		}
		if snap != nil {
			committed -= snap.commits
		}
		if committed != 0 {
			if force {
				// Replaying would repeat committed side effects; a real
				// flush never selects such a packet, so the forced one
				// must let it keep flowing.
				s.stages.put(v.stage, v)
				continue
			}
			if s.strictErr == nil {
				s.strictErr = fmt.Errorf("hwsim: flush from %d (write %d) would replay packet %d (stage %d, execStage %d) past %d committed map effects",
					from, writeStage, v.seq, v.stage, v.execStage, committed)
			}
		}
		// An older packet's write recalls v before v's own turn this
		// cycle: stage by stage, v has run the stage it stands in only if
		// it held there at the clock edge.
		executed := v.stage
		if v.stage > s.edgeLow {
			executed--
		}
		s.uncountAhead(v, executed)
		s.restore(v, snap)
		v.flushed++
		v.execStage = from - 1
		if s.probes != nil {
			s.probes.onStageExit(s.cycle, v, v.stage)
		}
		kept = append(kept, v)
	}
	for i := len(kept) - 1; i >= 0; i-- {
		s.reload.pushFront(kept[i])
	}
	s.stallPoint = from
	s.stallDrainTo = -1
	s.reloadDelay = flushReloadCycles
	s.stats.Flushes++
	s.stats.FlushedPackets += uint64(len(kept))
	if s.probes != nil {
		s.probes.onFlushBegin(s.cycle, writeStage, from, mapID, len(kept))
	}
}

// SetClock overrides the nanosecond clock visible to time helpers
// (bpf_ktime_get_ns); tests pin it for determinism. Nil restores the
// hardware clock: the cycle count scaled to nanoseconds.
func (s *Sim) SetClock(fn func() uint64) {
	if fn == nil {
		clock := s.cfg.Clock()
		fn = func() uint64 { return uint64(float64(s.cycle) / clock * 1e9) }
	}
	s.env.Now = fn
}
