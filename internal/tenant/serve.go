package tenant

import (
	"fmt"

	"ehdl/internal/nic"
	"ehdl/internal/obs"
)

// Serve drives one epoch of arrivals through the device: the classifier
// attributes every frame, per-tenant token buckets shed overload, and
// each live tenant's pipeline serves its admitted sub-batch in
// admission order. Tenant failures are contained — an unrecoverable
// pipeline death loses only that tenant's frames, exactly accounted as
// TenantDownLoss — so the returned error covers only the device's own
// invariants. The report satisfies the ledger identity
// (nic.Report.Accounted): every arrival lands in exactly one of
// Received, Lost, Throttled, Quarantined or TenantDownLoss. Its
// PerTenant rows are the device's own: the next Serve rewrites them.
func (d *Device) Serve(batch [][]byte, offeredPps float64) (nic.Report, error) {
	if offeredPps <= 0 {
		return nic.Report{}, fmt.Errorf("tenant: offered rate must be positive")
	}
	if len(d.tenants) == 0 {
		return nic.Report{}, fmt.Errorf("tenant: device has no admitted tenants")
	}
	sub, quarantined := d.classify(batch)
	return d.serve(sub, quarantined, offeredPps), nil
}

// classify attributes one epoch's arrivals: per-tenant sub-batches in
// arrival order, quarantine counted and traced. The sub-batches and the
// untagged copies they point at are the device's own, rebuilt here and
// valid until the next call.
func (d *Device) classify(batch [][]byte) (sub [][][]byte, quarantined uint64) {
	d.reserve(batch)
	d.strip = d.strip[:0]
	for i := range d.sub {
		d.sub[i] = d.sub[i][:0]
	}
	sub = d.sub
	for seq, pkt := range batch {
		t, frame, matched := d.classifyFrame(pkt)
		if !matched {
			d.steerFallback(seq, t)
		}
		if t == nil {
			quarantined++
			continue
		}
		sub[t.id] = append(sub[t.id], frame)
	}
	d.count(metricQuarantined, quarantined)
	return sub, quarantined
}

// reserve sizes the classify buffers for EpochPackets arrivals no longer
// than the longest of batch: a sub-batch per tenant that holds them all,
// and a strip arena that holds them all untagged. The traffic fixes
// both, so they are made once; a longer batch or frame, or a tenant
// admitted since, makes them anew.
func (d *Device) reserve(batch [][]byte) {
	n, longest := max(len(batch), d.cfg.epochPackets()), 0
	for _, pkt := range batch {
		longest = max(longest, len(pkt))
	}
	if cap(d.strip) < len(batch)*longest {
		d.strip = make([]byte, 0, n*longest)
	}
	if len(d.sub) < len(d.tenants) || cap(d.sub[0]) < len(batch) {
		slab := make([][]byte, len(d.tenants)*n)
		d.sub = make([][][]byte, len(d.tenants))
		for i := range d.sub {
			d.sub[i] = slab[i*n : i*n : (i+1)*n]
		}
	}
}

// serve polices and serves one epoch's classified arrivals.
func (d *Device) serve(sub [][][]byte, quarantined uint64, offeredPps float64) nic.Report {
	dev := nic.Report{Sent: quarantined, Quarantined: quarantined}

	// Police: per-tenant token buckets under isolation, one shared
	// first-come-first-served pool in the NoIsolation ablation (where a
	// noisy tenant admitted earlier starves its neighbours — the
	// behaviour the ablation table quantifies).
	if d.cfg.NoIsolation {
		pool := d.cfg.epochBudget()
		for _, t := range d.tenants {
			n := len(sub[t.id])
			if n > pool {
				n = pool
			}
			t.admitted = n
			pool -= n
		}
	} else {
		for _, t := range d.tenants {
			t.bucket += d.refill(t.Spec)
			if depth := float64(d.bucketDepth(t.Spec)); t.bucket > depth {
				t.bucket = depth
			}
			n := len(sub[t.id])
			if grant := int(t.bucket); n > grant {
				n = grant
			}
			t.admitted = n
			t.bucket -= float64(n)
		}
	}

	clear(d.rows)
	for _, t := range d.tenants {
		sl := &d.rows[t.id]
		sl.Name = t.Spec.Name
		sl.VLAN = t.Spec.VLAN
		arrivals := sub[t.id]
		sl.Steered = uint64(len(arrivals))
		d.count(metricSteered, sl.Steered)

		if t.dead {
			// Contained failure: the dead tenant's arrivals are its own
			// exactly-accounted loss; nothing of its neighbours changes.
			sl.DownLoss = uint64(len(arrivals))
			dev.Sent += sl.DownLoss
			dev.TenantDownLoss += sl.DownLoss
			continue
		}

		adm := t.admitted
		if shed := uint64(len(arrivals) - adm); shed > 0 {
			sl.Throttled = shed
			dev.Sent += shed
			dev.Throttled += shed
			d.count(metricThrottled, shed)
			d.event(obs.KindTenantThrottle, uint64(t.id), shed)
		}
		if adm == 0 {
			continue
		}
		sl.Admitted = uint64(adm)

		// Overflow-burst faults make the shell pull more than adm frames;
		// extras recycle the admitted sub-batch (modulo). The shell only
		// reads a pulled frame — malformed traffic is built in a fresh
		// slice, both engines copy on Inject — so the classifier's batch
		// is handed over as it is.
		i := 0
		next := func() []byte {
			pkt := arrivals[i%adm]
			i++
			return pkt
		}
		rep, err := t.sh.RunLoad(next, adm, offeredPps*t.Spec.Share)
		sl.FaultsInjected = rep.FaultsInjected
		sl.MalformedSent = rep.MalformedSent
		sl.Recoveries = rep.Recoveries
		sl.WatchdogTrips = rep.WatchdogTrips
		if err != nil {
			// Unrecoverable pipeline death mid-epoch (recovery budget
			// exhausted): retired frames stay delivered, the unserved
			// remainder is this tenant's bounded loss, and the tenant is
			// dead for the rest of the run. The shell's report is partial
			// on this path — only the retirement, fault and recovery
			// counters are final.
			t.dead = true
			t.deathCause = err.Error()
			delivered := rep.Received
			sent := uint64(adm)
			if delivered > sent {
				sent = delivered // chaos overflow extras retired pre-death
			}
			down := sent - delivered
			sl.Admitted -= down
			sl.DownLoss += down
			sl.Sent = sent - down
			sl.Received = delivered
			sl.Actions = rep.Actions
			dev.TenantDownLoss += down
			dev.Add(nic.Report{Sent: sl.Sent, Received: delivered, Actions: rep.Actions,
				Resilience: rep.Resilience, MalformedSent: rep.MalformedSent, OverflowBursts: rep.OverflowBursts})
			dev.Sent += down
			d.count(metricDelivered, delivered)
			continue
		}

		sl.Sent = rep.Sent
		sl.Received = rep.Received
		sl.Lost = rep.Lost
		sl.Flushes = rep.Flushes
		sl.Cycles = rep.Cycles
		sl.AchievedMpps = rep.AchievedMpps
		sl.AvgLatencyNs = rep.AvgLatencyNs
		sl.Actions = rep.Actions
		dev.Add(rep)
		d.count(metricDelivered, rep.Received)
		d.count(metricLost, rep.Lost)
	}

	dev.PerTenant = d.rows
	d.epoch++
	return dev
}

// RunLoad offers count arrivals from next() at offeredPps, chunked into
// policing epochs of EpochPackets, and folds the per-epoch reports on a
// nic.Timeline: the epochs follow one another, so counters sum but each
// rate is weighted by the cycles its epoch served for. Within an epoch
// the tenants serve side by side, and their rates sum.
func (d *Device) RunLoad(next func() []byte, count int, offeredPps float64) (nic.Report, error) {
	var tl nic.Timeline
	ep := d.cfg.epochPackets()
	all := make([][]byte, min(ep, count))
	var err error
	for off := 0; off < count && err == nil; off += ep {
		batch := all[:min(ep, count-off)]
		for i := range batch {
			batch[i] = next()
		}
		var rep nic.Report
		rep, err = d.Serve(batch, offeredPps)
		tl.Step(rep)
	}
	return tl.Report(), err
}
