// Package liveupdate is the one live-update protocol of the simulated
// NIC: it installs a freshly compiled pipeline in place of a running one
// without dropping a packet or losing map state — "update the NIC
// function like software". Both of the shell's drive loops call Swap at
// a drain barrier, over one engine or over every replica:
//
//	cutover — drain the serving engine;
//	gate    — CheckPrograms over the maps both programs declare;
//	shadow  — compile the new program, build its engine the way the
//	          shell's construction does, run host setup;
//	migrate — copy the drained state into the new engine and into a
//	          reference interpreter running the new program;
//	canary  — the new engine serves the next arrivals (every one held
//	          during the cutover, at least Config.CanaryPackets) while
//	          the reference runs them from the same state; outcomes are
//	          diffed by sequence number, then the maps.
//
// A pass commits and the canary's packets count as served. Any failure
// after the drain rolls back: the new engine and its window go, the
// held arrivals go to the old engine, whose state was only read, and
// Swap reports a typed *UpdateError naming the failing stage.
package liveupdate

import (
	"fmt"
	"math"

	"ehdl/internal/conformance"
	"ehdl/internal/core"
	"ehdl/internal/ebpf"
	"ehdl/internal/faults"
	"ehdl/internal/hwsim"
	"ehdl/internal/maps"
	"ehdl/internal/obs"
	"ehdl/internal/rss"
	"ehdl/internal/vm"
)

// Metric names registered when Config.Metrics is set.
const (
	MetricCanaried    = "liveupdate.canaried_packets"
	metricDivergences = "liveupdate.canary_divergences"
	MetricMigrated    = "liveupdate.migrated_entries"
	MetricHeld        = "liveupdate.held_packets"
)

// Mismatch classes carried in KindCanaryDiverge events (Aux): a
// packet's verdict, redirect target or bytes; the maps after the canary.
const (
	mismatchOutcome uint64 = iota
	mismatchMaps
)

// canaryBound caps the cycles a core of the new engine may take to
// accept a canary arrival or to run dry: a backstop against livelock.
const canaryBound = 4_000_000

// Config parameterises one update.
type Config struct {
	// Prog is the new program to install, compiled under the default
	// core.Options.
	Prog *ebpf.Program
	// Setup populates the new program's maps host-side before migration
	// (defaults, static table entries). Nil skips setup.
	Setup func(*maps.Set) error
	// Faults, when set, is the new engine's own fault campaign; nil
	// forks the shell's, if it runs one.
	Faults *faults.Injector
	// CanaryPackets is the least number of arrivals the canary diffs.
	// 0 means 32.
	CanaryPackets int
	// Trace, when non-nil, receives KindUpdatePhase and
	// KindCanaryDiverge events.
	Trace *obs.Tracer
	// Metrics, when non-nil, accumulates the liveupdate.* instruments.
	Metrics *obs.Registry
}

// Stats measures one update; the shell folds it into its Report.
type Stats struct {
	MigratedEntries   uint64 // map entries copied into the new engine
	CanariedPackets   uint64 // canary outcomes diffed against the reference
	CanaryDivergences uint64 // canary mismatches, the map diff included
	// HeldPackets counts the arrivals due within the cutover at the
	// offered rate; CutoverTicks is the drain tail plus one cycle per
	// migrated entry, the cycles no engine serves.
	HeldPackets, CutoverTicks uint64
}

// Loop is a drive loop at its drain barrier, as Swap sees it.
type Loop interface {
	// Drain runs the serving engine dry and returns its drain tail: the
	// cycles from the barrier to its last retirement. An error is the
	// engine's own; Swap returns it, nothing rolled back.
	Drain() (tail uint64, err error)
	// Old returns the serving program and its drained state (the merged
	// view of N replicas), which Swap only reads.
	Old() (*ebpf.Program, *maps.Set)
	// Now is the helper-visible time at the barrier: the new engine and
	// the reference read it through the canary, so time helpers cannot
	// diverge from pipelining alone.
	Now() uint64
	// Build instantiates pl the way the shell's construction does.
	Build(pl *core.Pipeline) (Engine, error)
}

// Engine is a built engine before it serves: the cores of its queues,
// the queue an arrival steers to, and the host view of its maps.
type Engine interface {
	Cores() []hwsim.Core
	Steer(pkt []byte) int
	Maps() *maps.Set
}

// Result is how an update ended: its measurements; the rollback's
// cause (nil on a commit); on a commit, the new engine's session over
// the canary window, which the run's books take like any other; after a
// rollback, the arrivals the canary took, which the old engine serves
// first.
type Result struct {
	Stats  Stats
	Err    *UpdateError
	Canary rss.RunStats
	Held   [][]byte
}

// swap is one run of the protocol.
type swap struct {
	cfg   Config
	ticks uint64 // cycles since the barrier, the event stamp
	stats Stats
}

// Swap runs one update at l's drain barrier. cyclesPerPacket is the
// offered arrival spacing; hold takes the run's next arrival, nil when
// it has no more.
func Swap(l Loop, cfg Config, cyclesPerPacket float64, hold func() []byte) (Result, error) {
	s := &swap{cfg: cfg}
	s.event(StageCutover, 0)
	tail, err := l.Drain()
	if err != nil {
		return Result{}, err
	}
	s.cutover(tail, cyclesPerPacket)
	oldProg, oldMaps := l.Old()

	s.event(StageGate, tail)
	if err := CheckPrograms(oldProg, cfg.Prog); err != nil {
		return s.fail(StageGate, err, nil), nil
	}

	s.event(StageShadow, 0)
	eng, ref, err := s.shadow(l, l.Now())
	if err != nil {
		return s.fail(StageShadow, err, nil), nil
	}

	s.event(StageMigrate, 0)
	n, err := migrate(oldMaps, eng.Maps(), ref.Maps)
	s.stats.MigratedEntries = n
	s.count(MetricMigrated, n)
	s.cutover(tail+n, cyclesPerPacket)
	if err != nil {
		return s.fail(StageMigrate, err, nil), nil
	}

	s.count(MetricHeld, s.stats.HeldPackets)
	s.event(StageCanary, n)
	least := cfg.CanaryPackets
	if least <= 0 {
		least = 32
	}
	window := make([][]byte, 0, max(int(s.stats.HeldPackets), least))
	for len(window) < cap(window) {
		pkt := hold()
		if pkt == nil {
			break
		}
		window = append(window, pkt)
	}
	canary, err := s.canary(eng, ref, window, cyclesPerPacket)
	if err != nil {
		return s.fail(StageCanary, err, window), nil
	}
	s.event(StageDone, s.stats.CanariedPackets)
	return Result{Stats: s.stats, Canary: canary}, nil
}

// cutover sets the cutover length and the arrivals held within it.
func (s *swap) cutover(ticks uint64, cyclesPerPacket float64) {
	s.ticks, s.stats.CutoverTicks = ticks, ticks
	s.stats.HeldPackets = uint64(math.Ceil(float64(ticks) / cyclesPerPacket))
}

// shadow compiles the new program, builds its engine and the reference
// interpreter beside it, and runs host setup on both.
func (s *swap) shadow(l Loop, now uint64) (Engine, *vm.Env, error) {
	pl, err := core.Compile(s.cfg.Prog, core.Options{})
	if err != nil {
		return nil, nil, err
	}
	eng, err := l.Build(pl)
	if err != nil {
		return nil, nil, err
	}
	ref, err := vm.NewEnv(s.cfg.Prog)
	if err != nil {
		return nil, nil, err
	}
	latch := func() uint64 { return now }
	ref.Now = latch
	for _, c := range eng.Cores() {
		c.SetClock(latch)
	}
	if setup := s.cfg.Setup; setup != nil {
		for _, set := range []*maps.Set{eng.Maps(), ref.Maps} {
			if err := setup(set); err != nil {
				return nil, nil, err
			}
		}
	}
	return eng, ref, nil
}

// migrate copies every map of the drained state that the new program
// declares under the same name into the new engine and the reference,
// entry by entry: live state overwrites colliding setup entries, and a
// map the new program dropped is dropped with its state. It returns the
// entries copied.
func migrate(old, eng, ref *maps.Set) (n uint64, err error) {
	for id := 0; id < old.Len(); id++ {
		src, _ := old.ByID(id)
		name := src.Spec().Name
		dst, ok := eng.ByName(name)
		if !ok {
			continue
		}
		twin, _ := ref.ByName(name)
		src.Iterate(func(k, v []byte) bool {
			if err = dst.Update(k, v, maps.UpdateAny); err == nil {
				err = twin.Update(k, v, maps.UpdateAny)
			}
			if err != nil {
				err = fmt.Errorf("liveupdate: migrate %q: %w", name, err)
				return false
			}
			n++
			return true
		})
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// canary serves the window on the new engine and diffs it against the
// reference. Arrival i of the window is due floor(i·cyclesPerPacket)
// cycles after the barrier, so the held ones are due as the new engine
// starts; each enters once its core's ingress is free, none is dropped.
// The reference runs every arrival as it enters, in arrival order; a
// core's k-th accepted frame carries sequence number k, which is how
// its retirement finds its reference outcome.
func (s *swap) canary(eng Engine, ref *vm.Env, window [][]byte, cyclesPerPacket float64) (rss.RunStats, error) {
	m, err := vm.New(s.cfg.Prog, ref)
	if err != nil {
		return rss.RunStats{}, err
	}
	cores := eng.Cores()
	run := rss.RunStats{PerQueue: make([]rss.QueueStats, len(cores)), Arrivals: uint64(len(window))}
	want := make([]map[uint64]conformance.Outcome, len(cores))
	seq := make([]uint64, len(cores)) // each core's next sequence number
	var diverged error
	for q, c := range cores {
		q, w := q, map[uint64]conformance.Outcome{}
		want[q] = w
		c.KeepData(true)
		c.OnComplete(func(r hwsim.Result) {
			got := conformance.Outcome{Action: r.Action, RedirectIfindex: r.RedirectIfindex, Data: r.Data}
			err := conformance.CompareOutcome(got, w[r.Seq])
			delete(w, r.Seq)
			s.stats.CanariedPackets++
			s.count(MetricCanaried, 1)
			if err != nil {
				s.diverge(int64(r.Seq), mismatchOutcome)
				if diverged == nil {
					diverged = fmt.Errorf("%w: queue %d packet %d: %v", ErrCanaryDiverged, q, r.Seq, err)
				}
			}
		})
	}
	defer func() {
		for _, c := range cores {
			c.OnComplete(nil)
			c.KeepData(false)
			c.SetClock(nil)
		}
	}()

	barrier := float64(s.ticks)
	for i, pkt := range window {
		q := eng.Steer(pkt)
		c, qs := cores[q], &run.PerQueue[q]
		due := uint64(max(0, math.Floor(float64(i)*cyclesPerPacket)-barrier))
		for n := 0; c.Cycle() < due || !c.InputFree(); n++ {
			if n == canaryBound {
				return run, fmt.Errorf("%w: queue %d refused the canary for %d cycles", errEngineFault, q, n)
			}
			if err := c.Step(); err != nil {
				return run, fmt.Errorf("%w: %v", errEngineFault, err)
			}
		}
		p := vm.NewPacket(append([]byte(nil), pkt...))
		res, err := m.Run(p)
		if err != nil {
			return run, fmt.Errorf("%w: reference: %v", errEngineFault, err)
		}
		want[q][seq[q]] = conformance.Outcome{Action: res.Action, RedirectIfindex: res.RedirectIfindex, Data: p.Bytes()}
		seq[q]++
		c.Inject(pkt)
		qs.Steered++
		qs.AcceptedBytes += uint64(len(pkt))
	}
	for q, c := range cores {
		if err := c.RunToCompletion(canaryBound); err != nil {
			return run, fmt.Errorf("%w: %v", errEngineFault, err)
		}
		qs := &run.PerQueue[q]
		qs.Cycles = c.Cycle()
		c.Window(&qs.Stats)
		run.MaxCycles = max(run.MaxCycles, qs.Cycles)
	}
	s.ticks += run.MaxCycles
	if diverged != nil {
		return run, diverged
	}
	if err := conformance.CompareMaps(ref.Maps, eng.Maps()); err != nil {
		s.diverge(obs.NoSeq, mismatchMaps)
		return run, fmt.Errorf("%w: map effects: %v", ErrCanaryDiverged, err)
	}
	return run, nil
}

// fail rolls the update back at stage: held, the arrivals the canary
// took, go to the old engine.
func (s *swap) fail(stage Stage, err error, held [][]byte) Result {
	s.event(StageRolledBack, uint64(stage))
	return Result{Stats: s.stats, Err: &UpdateError{Stage: stage, Err: err}, Held: held}
}

// event emits one KindUpdatePhase event.
func (s *swap) event(stage Stage, detail uint64) {
	s.emit(obs.KindUpdatePhase, obs.NoSeq, uint64(stage), detail)
}

// diverge counts one canary mismatch and emits its KindCanaryDiverge
// event.
func (s *swap) diverge(seq int64, mismatch uint64) {
	s.stats.CanaryDivergences++
	s.count(metricDivergences, 1)
	s.emit(obs.KindCanaryDiverge, seq, mismatch, 0)
}

// emit sends one event stamped with the cycles since the barrier.
func (s *swap) emit(kind obs.Kind, seq int64, aux, aux2 uint64) {
	if s.cfg.Trace != nil {
		s.cfg.Trace.Emit(obs.Event{Cycle: s.ticks, Kind: kind, Seq: seq,
			Stage: obs.NoStage, Map: obs.NoMap, Aux: aux, Aux2: aux2})
	}
}

// count adds n to one named metric when a registry is attached.
func (s *swap) count(name string, n uint64) {
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.Counter(name).Add(n)
	}
}
