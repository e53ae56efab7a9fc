package nic

import (
	"fmt"

	"ehdl/internal/core"
	"ehdl/internal/faults"
	"ehdl/internal/liveupdate"
	"ehdl/internal/rss"
)

// newEngine builds the replica set for a pipeline from the shell's
// configuration (at construction, and again for a live-update swap).
func (sh *Shell) newEngine(pl *core.Pipeline) (*rss.Engine, error) {
	return rss.NewEngine(pl, rss.Config{
		Queues:   sh.cfg.Queues,
		Batch:    sh.cfg.Batch,
		Sim:      sh.cfg.Sim,
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
	var run rss.RunStats // every session of this RunLoad
	perPkt := sh.cfg.ClockHz / tr.offeredPps
	if err := sh.engine.Start(perPkt, nil); err != nil {
		return err
	}
	for tr.sent < count {
		// A scheduled live update triggers once enough traffic was
		// offered: quiesce-drain every replica, swap them atomically,
		// and resume — or roll back with the old replicas untouched.
		if sh.pending != nil && tr.sent >= sh.pending.after {
			p := sh.pending
			sh.pending = nil
			rep.UpdatesAttempted++
			held, err := sh.swapEngine(rep, &run, p.cfg, perPkt)
			if _, rolledBack := err.(*liveupdate.UpdateError); err != nil && !rolledBack {
				// Not an update failure: the engine itself broke. The
				// report still holds what retired before it.
				sh.fold(rep, tr, run)
				return err
			}
			// Arrivals that landed during the cutover drain were held
			// and release first, in order — they are simply the next
			// packets of the generated sequence.
			for ; held > 0 && tr.sent < count; held-- {
				sh.engine.Offer(tr.take(next))
				tr.sent++
				rep.HeldPackets++
			}
			continue
		}
		sh.engine.Offer(tr.take(next))
		tr.sent++
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

// swapEngine performs the multi-queue live update: drain every replica
// of the serving engine (the quiesce barrier), gate the new program
// through the schema check, build the new replica set, migrate the
// merged old state into every new bank, and swap — all replicas cut
// over atomically, there is never a mixed fleet. Any failure rolls back
// with the old replicas' state untouched and the old engine resumed.
//
// Returns the number of arrivals that would have landed during the
// cutover drain window; the caller releases them into the serving
// engine first, preserving arrival order.
func (sh *Shell) swapEngine(rep *Report, run *rss.RunStats, ucfg liveupdate.Config, cyclesPerPacket float64) (held int, err error) {
	old := sh.engine

	// Quiesce: stop offering, run every replica dry. After Drain the
	// banked maps serve their merged views — the migration source.
	rs, derr := old.Drain()
	run.Add(rs)
	if derr != nil {
		return 0, derr
	}
	rep.CutoverTicks += rs.MaxCycles
	held = int(float64(rs.MaxCycles) / cyclesPerPacket)

	rollback := func(stage liveupdate.Stage, cause error) (int, error) {
		ue := &liveupdate.UpdateError{Stage: stage, Err: cause}
		rep.noteUpdate(nil, ue)
		// The old replicas still hold their state; resume serving.
		if serr := old.Start(cyclesPerPacket, nil); serr != nil {
			return 0, serr
		}
		return held, ue
	}

	// Shadow: schema gate, compile, build the new replica set, host setup.
	eng, cerr := func() (*rss.Engine, error) {
		if err := liveupdate.CheckPrograms(old.Pipeline().Prog, ucfg.Prog); err != nil {
			return nil, err
		}
		pl, err := core.Compile(ucfg.Prog, ucfg.Opts)
		if err != nil {
			return nil, err
		}
		eng, err := sh.newEngine(pl)
		if err != nil || ucfg.Setup == nil {
			return eng, err
		}
		return eng, ucfg.Setup(eng.HostMaps())
	}()
	if cerr != nil {
		return rollback(liveupdate.StageShadow, cerr)
	}

	// Migration: the merged old state broadcasts into every new bank
	// (pre-seal writes fan out), so each replica starts from the same
	// view a single-queue migration would have produced. Live state
	// overwrites colliding setup entries, like the bulk copy of the
	// single-queue controller.
	migrated, merr := migrateMerged(old, eng)
	if merr != nil {
		return rollback(liveupdate.StageMigrate, merr)
	}
	rep.MigratedEntries += migrated
	rep.MigrationTicks += migrated // one entry per tick, the bulk-copy cost model

	if sh.pinned != nil {
		eng.SetClock(sh.nowNs)
	}
	if serr := eng.Start(cyclesPerPacket, nil); serr != nil {
		return rollback(liveupdate.StageCutover, serr)
	}
	sh.engine = eng
	rep.UpdatesCompleted++
	rep.UpdateStage = liveupdate.StageDone.String()
	return held, nil
}

// migrateMerged copies every name-matched, schema-compatible map from
// the drained old engine's merged view into the new engine's host maps;
// a map the new program no longer declares is dropped with its state.
func migrateMerged(old, new *rss.Engine) (migrated uint64, err error) {
	for _, spec := range old.Pipeline().Prog.Maps {
		src, ok := old.HostMaps().ByName(spec.Name)
		dst, ok2 := new.HostMaps().ByName(spec.Name)
		if !ok || !ok2 {
			continue
		}
		src.Iterate(func(k, v []byte) bool {
			if err = dst.Update(k, v, 0); err != nil {
				err = fmt.Errorf("nic: migrate %q: %w", spec.Name, err)
				return false
			}
			migrated++
			return true
		})
		if err != nil {
			return migrated, err
		}
	}
	return migrated, nil
}
