package rss

import (
	"fmt"
	"sync"

	"ehdl/internal/core"
	"ehdl/internal/fastpath"
	"ehdl/internal/hwsim"
	"ehdl/internal/maps"
	"ehdl/internal/obs"
	"ehdl/internal/vm"
)

// Config parameterises the multi-queue engine.
type Config struct {
	// Queues is the replica count. Must be >= 1.
	Queues int
	// Batch is the dispatcher batch size. 0 means DefaultBatch.
	Batch int
	// Sim is the per-replica simulator template. ClockHz, hazard
	// policy, protection and watchdog settings apply to every replica.
	// Faults, when set, forks one deterministic per-class stream per
	// replica (same chaos profile, independent draws). Trace is NOT
	// handed to the replicas — the tracer is single-writer — it drives
	// the dispatcher's queue-steer events instead. Metrics is shared by
	// all replicas (the registry is atomic).
	Sim hwsim.Config
	// FastPath requests fast-path replicas (fastpath.NewCore) instead
	// of the cycle-accurate interpreter. It is a request, not a demand:
	// a configuration the fast path cannot serve (faults, protection,
	// watchdog, stall policy, metrics — the fallback matrix in
	// DESIGN.md) keeps the interpreter, and Engine.Fallback says why.
	// Queue-steer tracing stays available either way: the tracer lives
	// in the dispatcher, never in the replicas.
	FastPath bool
}

func (c Config) queues() int {
	if c.Queues < 1 {
		return 1
	}
	return c.Queues
}

// Completion is one retired packet as its replica reports it.
type Completion struct {
	// Queue is the replica that executed the packet.
	Queue int
	// Res is the replica engine's result; Res.Seq is the replica-local
	// injection sequence (the n-th frame the replica's ingress accepted
	// over the engine's lifetime), not a global arrival index.
	Res hwsim.Result
}

// QueueStats is the per-replica slice of a run.
type QueueStats struct {
	// Steered counts arrivals the dispatcher classified to this queue.
	Steered uint64
	// Cycles is the replica's simulated cycle count for the session
	// (including its drain tail).
	Cycles uint64
	// AcceptedBytes counts the frame bytes the replica's ingress took
	// (refused frames are Stats.QueueDrops and carry no bytes).
	AcceptedBytes uint64
	// Stats is the replica engine's counter window for the session; the
	// caller owns it.
	Stats hwsim.Stats
}

// RunStats aggregates one engine session (Start..Drain).
type RunStats struct {
	// PerQueue holds one entry per replica, index == queue.
	PerQueue []QueueStats
	// Arrivals counts packets offered to the dispatcher.
	Arrivals uint64
	// FallbackSteers counts malformed/non-IP frames taking the queue-0
	// catch-all.
	FallbackSteers uint64
	// MergeConflicts counts map keys mutated by more than one bank —
	// zero unless flow pinning was violated.
	MergeConflicts uint64
	// MaxCycles is the longest replica session in cycles: hardware
	// replicas run concurrently, so this is the run's wall-clock.
	MaxCycles uint64
}

// Add folds the next session of the same run into rs (a live-update
// swap splits one run into sessions on the old and the new replica set).
// Sessions are sequential in simulated time even though the replicas
// within one run concurrently, so MaxCycles — each session's wall-clock
// — sums, as does everything else; PerQueue merges by queue index.
func (rs *RunStats) Add(o RunStats) {
	if rs.PerQueue == nil {
		rs.PerQueue = make([]QueueStats, len(o.PerQueue))
	}
	for i, qs := range o.PerQueue {
		q := &rs.PerQueue[i]
		q.Steered += qs.Steered
		q.Cycles += qs.Cycles
		q.AcceptedBytes += qs.AcceptedBytes
		q.Stats = q.Stats.Add(qs.Stats)
	}
	rs.Arrivals += o.Arrivals
	rs.FallbackSteers += o.FallbackSteers
	rs.MergeConflicts += o.MergeConflicts
	rs.MaxCycles += o.MaxCycles
}

// replica is one pipeline copy and its worker-session state. The
// engine behind sim is either the cycle-accurate interpreter or a
// compiled fast-path machine; the worker drives the shared Core
// surface and never cares which.
type replica struct {
	idx int
	sim hwsim.Core

	// Session state, reset by Start and written only by the worker.
	cycleBase uint64
	endCycles uint64
	accepted  uint64
	endStats  hwsim.Stats
	runErr    error
}

// Engine replicates one compiled pipeline across N queues, each on its
// own goroutine, with banked per-flow maps and one shared instance for
// read-only state — the host-side model of the paper's Section 5
// replicated deployment.
type Engine struct {
	pl  *core.Pipeline
	cfg Config

	sharing []core.Sharing
	bankeds map[int]*banked
	host    *maps.Set

	replicas []*replica
	fallback string // why the interpreter serves; "" when it does not
	sealed   bool
	running  bool

	disp       *Dispatcher
	workerWG   sync.WaitGroup
	completed  []*obs.Counter
	drainBound uint64
}

// defaultDrainBound caps the per-replica drain tail after the last
// arrival: generous against stall policies and flush storms, far below
// anything a livelock would need (the watchdog owns that).
const defaultDrainBound = 4_000_000

// NewEngine builds the replicas and the sharded map substrate. The
// returned engine's HostMaps set is ready for application setup; call
// Start before offering traffic.
func NewEngine(pl *core.Pipeline, cfg Config) (*Engine, error) {
	n := cfg.queues()
	// One dispatcher per engine, armed by every Start: its hasher and
	// batch buffers outlive the sessions.
	disp, err := newDispatcher(DispatcherConfig{Queues: n, Batch: cfg.Batch}, cfg.Sim.Trace, cfg.Sim.Metrics)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		pl:         pl,
		cfg:        cfg,
		bankeds:    map[int]*banked{},
		disp:       disp,
		drainBound: defaultDrainBound,
	}

	prog := pl.Prog
	// Per-map layout: one shared instance, or N banks plus a merged
	// host view.
	replicaMaps := make([][]maps.Map, n)
	var hostMaps []maps.Map
	for id, spec := range prog.Maps {
		sh := pl.MapBlockFor(id).Sharing()
		e.sharing = append(e.sharing, sh)
		if sh == core.SharingShared {
			m, err := maps.New(spec)
			if err != nil {
				return nil, fmt.Errorf("rss: map %q: %w", spec.Name, err)
			}
			for q := 0; q < n; q++ {
				replicaMaps[q] = append(replicaMaps[q], m)
			}
			hostMaps = append(hostMaps, m)
			continue
		}
		b, err := newBanked(spec, sh, n)
		if err != nil {
			return nil, fmt.Errorf("rss: map %q: %w", spec.Name, err)
		}
		e.bankeds[id] = b
		for q := 0; q < n; q++ {
			replicaMaps[q] = append(replicaMaps[q], b.bank(q))
		}
		hostMaps = append(hostMaps, maps.Synchronize(b))
	}
	e.host = maps.SetOf(hostMaps...)

	for q := 0; q < n; q++ {
		simCfg := cfg.Sim
		// The tracer is single-writer; replicas must not share it. The
		// dispatcher (caller goroutine) keeps it for steer events, so
		// steered tracing does not force the interpreter — a fault
		// campaign, protection, watchdog, stall policy or a metrics
		// registry does (the per-replica fallback matrix in DESIGN.md).
		simCfg.Trace = nil
		if cfg.Sim.Faults != nil {
			// Each replica runs its own forked per-class fault streams:
			// same seeded campaign shape, independent draws, and the
			// shell-side injector loses no draws to the replicas.
			simCfg.Faults = cfg.Sim.Faults.Fork(int64(100 + q))
		}
		env := &vm.Env{Maps: maps.SetOf(replicaMaps[q]...)}
		eng, why, err := fastpath.NewCore(pl, simCfg, env, cfg.FastPath)
		if err != nil {
			return nil, err
		}
		e.fallback = why // the same for every replica
		e.replicas = append(e.replicas, &replica{idx: q, sim: eng})
		if cfg.Sim.Metrics != nil {
			e.completed = append(e.completed, cfg.Sim.Metrics.Counter(MetricCompleted(q)))
		}
	}
	return e, nil
}

// Queues returns the replica count.
func (e *Engine) Queues() int { return len(e.replicas) }

// Pipeline returns the compiled design the replicas execute.
func (e *Engine) Pipeline() *core.Pipeline { return e.pl }

// HostMaps is the host-side map view: shared instances directly,
// banked maps through their synchronized merged wrapper. Writes before
// Start broadcast to every bank; reads after Drain serve the merged
// per-CPU-style view.
func (e *Engine) HostMaps() *maps.Set { return e.host }

// ReplicaCore exposes one replica's execution engine regardless of
// mode.
func (e *Engine) ReplicaCore(q int) hwsim.Core { return e.replicas[q].sim }

// Fallback says why the replicas run the interpreter ("" when they do
// not): that nobody requested the fast path, or the feature
// fastpath.Eligible named.
func (e *Engine) Fallback() string { return e.fallback }

// SetClock pins the helper-visible clock of every replica.
func (e *Engine) SetClock(fn func() uint64) {
	for _, r := range e.replicas {
		r.sim.SetClock(fn)
	}
}

// KeepData makes every replica retain result payloads (conformance).
func (e *Engine) KeepData(keep bool) {
	for _, r := range e.replicas {
		r.sim.KeepData(keep)
	}
}

// Seal ends host setup: from here on host reads serve the merged view.
// Host writes still broadcast to every bank and refresh the baseline,
// so a write after the seal lands as one before it would. Start seals
// an engine nobody sealed; a live update seals its new engine at once,
// so the canary's data-plane writes merge against the migrated state.
func (e *Engine) Seal() {
	if e.sealed {
		return
	}
	for _, b := range e.bankeds {
		b.seal()
	}
	e.sealed = true
}

// Steer returns the queue the dispatcher classifies pkt to, without
// offering it: its Toeplitz hash's, or the queue-0 catch-all.
func (e *Engine) Steer(pkt []byte) int {
	if hash, ok := e.disp.hasher.HashPacket(pkt); ok {
		return e.disp.ind.QueueFor(hash)
	}
	return 0
}

// Start seals host setup (first call), re-arms the dispatcher for the
// offered rate and launches one worker per replica — the only
// goroutines the engine owns between Start and Drain. Packets flow one
// way: counters come back once, at Drain. onComplete, when non-nil, is
// called by each worker on its own goroutine as its replica retires a
// packet: per-queue order is preserved, queues run concurrently, so the
// consumer must not share unsynchronised state across queues. With nil
// no retirement callback is registered and the replicas build no
// hwsim.Result at all.
func (e *Engine) Start(cyclesPerPacket float64, onComplete func(Completion)) error {
	if e.running {
		return fmt.Errorf("rss: engine already running")
	}
	e.Seal()
	e.disp.arm(cyclesPerPacket)
	e.running = true

	for _, r := range e.replicas {
		r.cycleBase = r.sim.Cycle()
		// Open the session's counter window; the worker closes it into
		// the same (fresh: Drain hands the last one out) scratch.
		r.endStats = hwsim.Stats{}
		r.sim.Window(&r.endStats)
		r.accepted, r.runErr = 0, nil
		e.workerWG.Add(1)
		go e.worker(r, e.disp.Sink(r.idx), onComplete)
	}
	return nil
}

// Offer classifies and enqueues one arrival; returns the chosen queue.
// Call only between Start and Drain, from one goroutine.
func (e *Engine) Offer(pkt []byte) int { return e.disp.Offer(pkt) }

// OfferBurst enqueues one arrival without advancing the pacing clock:
// the frame lands on the same due cycle as the next paced arrival, the
// way an ingress overflow burst piles onto one cycle.
func (e *Engine) OfferBurst(pkt []byte) int { return e.disp.offer(pkt, false) }

// worker drives one replica: it paces each item to its global due cycle
// and injects it. On an engine error it keeps draining the channel (so
// the dispatcher never blocks) and reports the error at Drain.
func (e *Engine) worker(r *replica, in <-chan []Item, onComplete func(Completion)) {
	defer e.workerWG.Done()
	sim := r.sim
	if onComplete != nil {
		sim.OnComplete(func(res hwsim.Result) {
			onComplete(Completion{Queue: r.idx, Res: res})
		})
		defer sim.OnComplete(nil)
	}

	for items := range in {
		if r.runErr != nil {
			continue // discard: keep the dispatcher unblocked
		}
		for _, it := range items {
			for sim.Cycle()-r.cycleBase < it.Due {
				if err := sim.Step(); err != nil {
					r.runErr = err
					break
				}
			}
			if r.runErr != nil {
				break
			}
			if sim.Inject(it.Data) {
				r.accepted += uint64(len(it.Data))
			}
		}
	}
	if r.runErr == nil {
		// Drain: run the tail out. The bound is a backstop, not a
		// deadline — an idle replica exits on the first check.
		if err := sim.RunToCompletion(e.drainBound); err != nil {
			r.runErr = err
		}
	}
	r.endCycles = sim.Cycle() - r.cycleBase
	sim.Window(&r.endStats)
}

// Drain flushes the dispatcher, runs every replica to completion, joins
// the workers and returns the session's aggregated statistics; the
// per-queue completion counters are published here, once, from each
// worker's counter window. The first replica error (lowest queue wins,
// deterministically) is returned after all goroutines have stopped.
func (e *Engine) Drain() (RunStats, error) {
	if !e.running {
		return RunStats{}, fmt.Errorf("rss: engine not running")
	}
	e.disp.Close()
	e.workerWG.Wait()
	e.running = false

	var rs RunStats
	rs.Arrivals = e.disp.arrivals
	perQueue := e.disp.perQueue
	var firstErr error
	for _, r := range e.replicas {
		qs := QueueStats{
			Steered:       perQueue[r.idx],
			Cycles:        r.endCycles,
			AcceptedBytes: r.accepted,
			Stats:         r.endStats,
		}
		rs.PerQueue = append(rs.PerQueue, qs)
		if qs.Cycles > rs.MaxCycles {
			rs.MaxCycles = qs.Cycles
		}
		if e.completed != nil {
			e.completed[r.idx].Add(qs.Stats.Completed)
		}
		if r.runErr != nil && firstErr == nil {
			firstErr = fmt.Errorf("rss: queue %d: %w", r.idx, r.runErr)
		}
	}
	for _, b := range e.bankeds {
		rs.MergeConflicts += b.Conflicts()
	}
	rs.FallbackSteers = e.disp.fallbacks
	return rs, firstErr
}
