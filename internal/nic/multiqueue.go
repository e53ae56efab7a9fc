package nic

import (
	"ehdl/internal/core"
	"ehdl/internal/ebpf"
	"ehdl/internal/faults"
	"ehdl/internal/hwsim"
	"ehdl/internal/liveupdate"
	"ehdl/internal/maps"
	"ehdl/internal/rss"
)

// newEngine builds the replica set for a pipeline on the given simulator
// configuration (the shell's at construction, a live update's for the
// new engine).
func (sh *Shell) newEngine(pl *core.Pipeline, sim hwsim.Config) (*rss.Engine, error) {
	return rss.NewEngine(pl, rss.Config{
		Queues:   sh.cfg.Queues,
		Batch:    sh.cfg.Batch,
		Sim:      sim,
		FastPath: sh.cfg.FastPath,
	})
}

// runMulti is the multi-queue drive loop: the caller's goroutine
// generates and classifies arrivals, the dispatcher stamps each with its
// entry cycle floor(i x cycles-per-packet) up front, and one worker
// goroutine per replica paces and executes them against that shared
// simulated clock — so simulated results are deterministic regardless
// of host scheduling. Nothing is consumed per packet: the workers'
// counters are the whole ledger. A live update swaps at a drain barrier.
func (sh *Shell) runMulti(rep *Report, tr *traffic, next func() []byte, count int) error {
	var (
		run   rss.RunStats // every session of this RunLoad
		paced uint64       // paced arrivals of the open session
	)
	perPkt := sh.cfg.ClockHz / tr.offeredPps
	if err := sh.engine.Start(perPkt, nil); err != nil {
		return err
	}
	for tr.sent < count || len(tr.held) > 0 {
		if p := sh.pending; p != nil && tr.sent >= p.after && tr.sent < count {
			sh.pending = nil
			rep.UpdatesAttempted++
			b := &replicaBarrier{barrier: sh.barrier(p.cfg), paced: paced, cpp: perPkt}
			res, err := liveupdate.Swap(b, p.cfg, perPkt, func() []byte { return tr.hold(next, count) })
			run.Add(b.drained)
			if err != nil {
				// Not an update failure: the engine itself broke. The
				// report still holds what retired before it.
				sh.fold(rep, tr, run)
				return err
			}
			rep.noteUpdate(res)
			if res.Err == nil {
				run.Add(res.Canary)
				sh.cycleBase += b.end
				sh.engine = b.built
				sh.continueClock()
			}
			tr.held, paced = res.Held, 0
			if err := sh.engine.Start(perPkt, nil); err != nil {
				return err
			}
			continue
		}
		sh.engine.Offer(tr.arrive(next))
		paced++
		if sh.inj != nil && tr.sent < count && sh.inj.Roll(faults.QueueOverflow) {
			// Ingress overflow burst: a burst of frames lands on the
			// next arrival's cycle on top of the paced load, spread
			// across queues by their flow hashes.
			for i := 0; i < sh.inj.BurstLen(); i++ {
				sh.engine.OfferBurst(tr.take(next))
				tr.extra++
			}
			sh.inj.Note(faults.QueueOverflow)
		}
	}
	rs, err := sh.engine.Drain()
	run.Add(rs)
	sh.fold(rep, tr, run)
	return err
}

// continueClock hands every replica of a committed engine the master
// clock: the cycles the retired engines ran, then the replica's own.
// Time helpers never see a swap rewind it. It runs once per committed
// update, never per session.
func (sh *Shell) continueClock() {
	for q := 0; q < sh.engine.Queues(); q++ {
		c := sh.engine.ReplicaCore(q)
		c.SetClock(func() uint64 { return sh.clockAt(sh.cycleBase + c.Cycle()) })
	}
}

// drainBound caps the single-queue drain at an update's barrier, like
// the replicas' own drain bound: a backstop, not a deadline.
const drainBound = 4_000_000

// barrier is a drive loop at its drain barrier (liveupdate.Loop): the
// shell and the configuration the new engine is built on — the
// shell's, with the update's fault campaign or a fork of the shell's.
// coreBarrier and replicaBarrier add what the two loops drain and
// build. The arrival stream stays with the loop (traffic.hold), so a
// run without an update keeps its ledger off the heap.
type barrier struct {
	sh  *Shell
	sim hwsim.Config
}

func (sh *Shell) barrier(ucfg liveupdate.Config) barrier {
	sim := sh.cfg.Sim
	switch {
	case ucfg.Faults != nil:
		sim.Faults = ucfg.Faults
	case sh.inj != nil:
		sim.Faults = sh.inj.Fork(1)
	}
	return barrier{sh: sh, sim: sim}
}

// coreBarrier is the single-queue loop's barrier: one engine.
type coreBarrier struct {
	barrier
	built    hwsim.Core
	prog     *ebpf.Program
	fallback string
}

func (b *coreBarrier) Drain() (uint64, error) {
	c := b.sh.core
	start := c.Cycle()
	err := c.RunToCompletion(drainBound)
	return c.Cycle() - start, err
}

func (b *coreBarrier) Old() (*ebpf.Program, *maps.Set) { return b.sh.prog, b.sh.core.Maps() }

func (b *coreBarrier) Now() uint64 { return b.sh.nowNs() }

func (b *coreBarrier) Build(pl *core.Pipeline) (liveupdate.Engine, error) {
	c, why, err := b.sh.newCore(pl, b.sim)
	b.built, b.prog, b.fallback = c, pl.Prog, why
	return oneQueue{c}, err
}

// oneQueue is a single engine as the update protocol sees it.
type oneQueue struct{ hwsim.Core }

func (e oneQueue) Cores() []hwsim.Core { return []hwsim.Core{e.Core} }

func (oneQueue) Steer([]byte) int { return 0 }

// replicaBarrier is the multi-queue loop's barrier: every replica.
// paced is how many paced arrivals the drained session took, which
// places the barrier on the dispatcher's clock; end is the furthest
// replica's cycle count after the drain, the old engine's time at the
// barrier. The loop books drained after Swap.
type replicaBarrier struct {
	barrier
	paced   uint64
	cpp     float64
	end     uint64
	drained rss.RunStats
	built   *rss.Engine
}

// Drain runs every replica dry. The barrier is the cycle after the last
// paced arrival's due cycle, as on the single-queue loop.
func (b *replicaBarrier) Drain() (uint64, error) {
	rs, err := b.sh.engine.Drain()
	b.drained = rs
	for q := 0; q < b.sh.engine.Queues(); q++ {
		b.end = max(b.end, b.sh.engine.ReplicaCore(q).Cycle())
	}
	var at uint64
	if b.paced > 0 {
		at = uint64(float64(b.paced-1)*b.cpp) + 1
	}
	return rs.MaxCycles - min(at, rs.MaxCycles), err
}

func (b *replicaBarrier) Old() (*ebpf.Program, *maps.Set) {
	return b.sh.engine.Pipeline().Prog, b.sh.engine.HostMaps()
}

func (b *replicaBarrier) Now() uint64 { return b.sh.clockAt(b.sh.cycleBase + b.end) }

// Build seals the new engine at once: setup, migration and the canary
// then all merge against one baseline.
func (b *replicaBarrier) Build(pl *core.Pipeline) (liveupdate.Engine, error) {
	eng, err := b.sh.newEngine(pl, b.sim)
	if err != nil {
		return nil, err
	}
	eng.Seal()
	b.built = eng
	return replicas{eng}, nil
}

// replicas is the multi-queue engine as the update protocol sees it.
type replicas struct{ *rss.Engine }

func (e replicas) Cores() []hwsim.Core {
	cores := make([]hwsim.Core, e.Queues())
	for q := range cores {
		cores[q] = e.ReplicaCore(q)
	}
	return cores
}

func (e replicas) Maps() *maps.Set { return e.HostMaps() }
