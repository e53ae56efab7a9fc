package nic

import (
	"encoding/json"

	"ehdl/internal/faults"
	"ehdl/internal/hwsim"
	"ehdl/internal/liveupdate"
	"ehdl/internal/rss"
)

// traffic is the generator's side of one RunLoad: what it offered. What
// came back is the engines' to say (hwsim.Stats), and fold joins the two.
type traffic struct {
	offeredPps  float64
	sent, extra int // paced arrivals; overflow-burst frames on top
	bytesIn     uint64
	faults0     faults.Counters // the injector's counters at the start
	held        [][]byte        // sent arrivals a rolled-back update returned
}

// take pulls the next generated frame into the ledger.
func (tr *traffic) take(next func() []byte) []byte {
	pkt := next()
	tr.bytesIn += uint64(len(pkt))
	return pkt
}

// arrive is the next paced arrival: what a rolled-back update returned
// first, then the generator's.
func (tr *traffic) arrive(next func() []byte) []byte {
	if len(tr.held) > 0 {
		pkt := tr.held[0]
		tr.held = tr.held[1:]
		return pkt
	}
	tr.sent++
	return tr.take(next)
}

// hold takes the run's next paced arrival for a live update's canary
// window, nil once all count were sent.
func (tr *traffic) hold(next func() []byte, count int) []byte {
	if tr.sent >= count {
		return nil
	}
	tr.sent++
	return tr.take(next)
}

// fold assembles the Report of one RunLoad — the one place engine
// counters and the traffic ledger become report fields (update outcomes
// are already on rep). run holds each replica's counters: one entry, and
// no PerQueue breakdown, on the single-queue shell. Its MaxCycles is the
// run's wall-clock — replicas are concurrent in hardware, so rates
// divide by it, not by the per-queue cycle sum — and Received, Actions
// and latency come from the engines' integer counters, so no figure
// depends on the order replicas interleave.
func (sh *Shell) fold(rep *Report, tr *traffic, run rss.RunStats) {
	clock := sh.cfg.ClockHz
	st, accepted := run.PerQueue[0].Stats, run.PerQueue[0].AcceptedBytes
	for _, qs := range run.PerQueue[1:] {
		st, accepted = st.Add(qs.Stats), accepted+qs.AcceptedBytes
	}
	rep.QueueCount = len(run.PerQueue)
	if len(run.PerQueue) > 1 { // the classic shell has no breakdown
		rep.PerQueue = make([]QueueReport, len(run.PerQueue))
	}
	for q := range rep.PerQueue {
		qs := run.PerQueue[q]
		qr := QueueReport{
			Queue:    q,
			Steered:  qs.Steered,
			Received: qs.Stats.Completed,
			Lost:     qs.Stats.QueueDrops,
			Flushes:  qs.Stats.Flushes,
			Cycles:   qs.Cycles,
		}
		if qs.Cycles > 0 {
			qr.AchievedMpps = float64(qr.Received) / (float64(qs.Cycles) / clock) / 1e6
		}
		rep.PerQueue[q] = qr
	}
	rep.SteerFallbacks = run.FallbackSteers
	rep.MergeConflicts = run.MergeConflicts

	rep.Sent = uint64(tr.sent + tr.extra)
	rep.Cycles = run.MaxCycles
	rep.Received = st.Completed
	rep.Actions = st.Actions
	rep.Lost = st.QueueDrops
	rep.Flushes = st.Flushes
	rep.Resilience = st.Resilience
	if sh.inj != nil {
		now := sh.inj.Counters()
		rep.MalformedSent = now.ByClass[faults.MalformedTraffic] - tr.faults0.ByClass[faults.MalformedTraffic]
		rep.OverflowBursts = now.ByClass[faults.QueueOverflow] - tr.faults0.ByClass[faults.QueueOverflow]
	}

	if seconds := float64(rep.Cycles) / clock; seconds > 0 {
		rep.AchievedMpps = float64(rep.Received) / seconds / 1e6
		rep.AchievedGbps = float64(accepted+20*rep.Received) * 8 / seconds / 1e9
		rep.FlushesPerS = float64(rep.Flushes) / seconds
	}
	rep.OfferedMpps = tr.offeredPps / 1e6
	if tr.sent > 0 {
		rep.OfferedGbps = float64(tr.bytesIn+20*rep.Sent) * 8 / (float64(tr.sent) * (clock / tr.offeredPps) / clock) / 1e9
	}
	if rep.Received > 0 {
		// Every packet also crosses the MAC and the async FIFOs.
		const fifo = fifoCycles
		rep.AvgLatencyNs = float64(st.LatencySum+fifo*rep.Received) / float64(rep.Received) / clock * 1e9
		rep.MaxLatencyNs = float64(st.LatencyMax+fifo) / clock * 1e9
	}
}

// noteUpdate records how the run's live update ended.
func (rep *Report) noteUpdate(res liveupdate.Result) {
	st := res.Stats
	rep.UpdateStage = liveupdate.StageDone.String()
	rep.MigratedEntries = st.MigratedEntries
	rep.CanariedPackets = st.CanariedPackets
	rep.CanaryDivergences = st.CanaryDivergences
	rep.HeldPackets = st.HeldPackets
	rep.CutoverTicks = st.CutoverTicks
	if res.Err != nil {
		rep.UpdateStage = liveupdate.StageRolledBack.String()
		rep.UpdatesRolledBack++
		rep.UpdateFailure = res.Err.Error()
		return
	}
	rep.UpdatesCompleted++
}

// TenantSlice is one tenant's slice of a multi-tenant device run: the
// per-tenant ledger (classifier steering, token-bucket policing,
// tenant-death loss) plus the tenant's own traffic, fault and recovery
// figures. The slice carries its own identity:
//
//	Steered == Admitted + Throttled + DownLoss
//	Sent    == Admitted + overflow extras == Received + Lost
//
// so per-tenant loss is exactly accounted, never inferred.
type TenantSlice struct {
	// Name identifies the tenant; Add merges slices by it.
	Name string `json:"name"`
	// VLAN is the tenant's classifier tag (0: 5-tuple rules only).
	VLAN uint16 `json:"vlan,omitempty"`

	// Steered counts arrivals the classifier attributed to the tenant
	// (including quarantine steers when the tenant is the default).
	Steered uint64 `json:"steered"`
	// Admitted counts steered frames that passed the token bucket into
	// the tenant's pipeline; Throttled counts the shed overload.
	Admitted  uint64 `json:"admitted"`
	Throttled uint64 `json:"throttled"`
	// DownLoss counts frames lost to the tenant's own unrecoverable
	// pipeline death — contained to this tenant by construction.
	DownLoss uint64 `json:"down_loss"`

	// Shell-side accounting, nic.Report semantics.
	Sent     uint64 `json:"sent"`
	Received uint64 `json:"received"`
	Lost     uint64 `json:"lost"`
	Flushes  uint64 `json:"flushes"`
	Cycles   uint64 `json:"cycles"`

	// Fault and recovery containment figures.
	FaultsInjected uint64 `json:"faults_injected"`
	MalformedSent  uint64 `json:"malformed_sent"`
	Recoveries     uint64 `json:"recoveries"`
	WatchdogTrips  uint64 `json:"watchdog_trips"`

	AchievedMpps float64 `json:"achieved_mpps"`
	// AvgLatencyNs is Received-weighted under Add.
	AvgLatencyNs float64 `json:"avg_latency_ns"`

	Actions hwsim.Verdicts `json:"actions"`
}

// MarshalJSON encodes the row field by field, leaving an empty verdict
// histogram out as the map it replaced was left out (omitempty does not
// apply to a struct).
func (s TenantSlice) MarshalJSON() ([]byte, error) {
	type fields TenantSlice // the same fields without this method
	var acts *hwsim.Verdicts
	if !s.Actions.IsZero() {
		acts = &s.Actions
	}
	return json.Marshal(struct {
		fields
		Actions *hwsim.Verdicts `json:"actions,omitempty"` // shadows fields.Actions
	}{fields(s), acts})
}

// Accounted states the per-tenant ledger: every steered frame is
// admitted, throttled or lost to the tenant's death, and everything the
// tenant's pipeline was offered retired or was dropped by its ingress
// queue. Both identities are additive, so they survive Add-merges.
func (s TenantSlice) Accounted() bool {
	return s.Steered == s.Admitted+s.Throttled+s.DownLoss &&
		s.Sent == s.Received+s.Lost
}

// add folds another slice of the same tenant into this one.
func (s *TenantSlice) add(o TenantSlice) {
	if tot := s.Received + o.Received; tot > 0 {
		s.AvgLatencyNs = (s.AvgLatencyNs*float64(s.Received) +
			o.AvgLatencyNs*float64(o.Received)) / float64(tot)
	}
	if s.VLAN == 0 {
		s.VLAN = o.VLAN
	}
	s.Steered += o.Steered
	s.Admitted += o.Admitted
	s.Throttled += o.Throttled
	s.DownLoss += o.DownLoss
	s.Sent += o.Sent
	s.Received += o.Received
	s.Lost += o.Lost
	s.Flushes += o.Flushes
	s.Cycles += o.Cycles
	s.FaultsInjected += o.FaultsInjected
	s.MalformedSent += o.MalformedSent
	s.Recoveries += o.Recoveries
	s.WatchdogTrips += o.WatchdogTrips
	s.AchievedMpps += o.AchievedMpps
	s.Actions.Merge(o.Actions)
}

// Accounted states the device-level loss ledger: every offered frame
// lands in exactly one of Received (retired with a verdict, aborted
// included), Lost (ingress back-pressure), Throttled (per-tenant
// policing), Quarantined (unclassifiable, no default tenant) or
// TenantDownLoss (tenant pipeline dead). On a classic single-program
// shell the last three are zero and the identity reduces to
// Sent == Received + Lost. The identity is additive, so it survives
// Add-merges across epochs, queues, tenants and fleet shards — the
// noisy-neighbor and fleet chaos gates assert it after every run.
func (r Report) Accounted() bool {
	return r.Sent == r.Received+r.Lost+r.Throttled+r.Quarantined+r.TenantDownLoss
}

// Add folds another device's Report into this one, treating the two as
// parallel shards of one cluster: pure counters sum, rates sum (devices
// add capacity side by side), latency averages are weighted by the
// packets that experienced them, and worst-case figures take the max.
// The fleet controller uses it to build one cluster Report from N
// per-device runs, so the aggregation rules live here — next to the
// counter definitions — rather than ad hoc at the call site.
//
// Aggregation rules that are not plain sums:
//
//   - AvgLatencyNs is Received-weighted; MaxLatencyNs takes the max
//     across devices.
//   - UpdateStage and UpdateFailure keep the first non-empty value, so
//     the earliest failing device's cause survives aggregation.
//   - QueueCount takes the max (the widest replica set that served any
//     merged run) and PerQueue entries merge by queue index: the same
//     replica's slices across epochs or shards fold into one breakdown
//     row instead of appending duplicates.
//   - PerTenant sub-reports merge by tenant name, so a tenant's ledger
//     stays one row across epoch folds and fleet aggregation.
func (r *Report) Add(o Report) {
	// Weighted means first, while both sides' weights are still intact.
	if tot := r.Received + o.Received; tot > 0 {
		r.AvgLatencyNs = (r.AvgLatencyNs*float64(r.Received) +
			o.AvgLatencyNs*float64(o.Received)) / float64(tot)
	}
	if o.MaxLatencyNs > r.MaxLatencyNs {
		r.MaxLatencyNs = o.MaxLatencyNs
	}

	// Parallel shards add capacity: rates sum.
	r.OfferedMpps += o.OfferedMpps
	r.AchievedMpps += o.AchievedMpps
	r.OfferedGbps += o.OfferedGbps
	r.AchievedGbps += o.AchievedGbps
	r.FlushesPerS += o.FlushesPerS

	// Traffic accounting.
	r.Sent += o.Sent
	r.Received += o.Received
	r.Lost += o.Lost
	r.Flushes += o.Flushes
	r.Cycles += o.Cycles
	r.Actions.Merge(o.Actions)

	// Fault campaign, protection and recovery.
	r.Resilience.Add(o.Resilience)
	r.MalformedSent += o.MalformedSent
	r.OverflowBursts += o.OverflowBursts

	// Live-update outcomes.
	r.UpdatesAttempted += o.UpdatesAttempted
	r.UpdatesCompleted += o.UpdatesCompleted
	r.UpdatesRolledBack += o.UpdatesRolledBack
	if r.UpdateStage == "" {
		r.UpdateStage = o.UpdateStage
	}
	if r.UpdateFailure == "" {
		r.UpdateFailure = o.UpdateFailure
	}
	r.MigratedEntries += o.MigratedEntries
	r.CanariedPackets += o.CanariedPackets
	r.CanaryDivergences += o.CanaryDivergences
	r.HeldPackets += o.HeldPackets
	r.CutoverTicks += o.CutoverTicks

	// Multi-queue breakdown: the same replica index folds into one row.
	if o.QueueCount > r.QueueCount {
		r.QueueCount = o.QueueCount
	}
	for _, oq := range o.PerQueue {
		merged := false
		for i := range r.PerQueue {
			if r.PerQueue[i].Queue == oq.Queue {
				r.PerQueue[i].Steered += oq.Steered
				r.PerQueue[i].Received += oq.Received
				r.PerQueue[i].Lost += oq.Lost
				r.PerQueue[i].Flushes += oq.Flushes
				r.PerQueue[i].Cycles += oq.Cycles
				r.PerQueue[i].AchievedMpps += oq.AchievedMpps
				merged = true
				break
			}
		}
		if !merged {
			r.PerQueue = append(r.PerQueue, oq)
		}
	}
	r.SteerFallbacks += o.SteerFallbacks
	r.MergeConflicts += o.MergeConflicts

	// Multi-tenant breakdown: the same tenant folds into one ledger row.
	r.Throttled += o.Throttled
	r.Quarantined += o.Quarantined
	r.TenantDownLoss += o.TenantDownLoss
	for _, ot := range o.PerTenant {
		merged := false
		for i := range r.PerTenant {
			if r.PerTenant[i].Name == ot.Name {
				r.PerTenant[i].add(ot)
				merged = true
				break
			}
		}
		if !merged {
			r.PerTenant = append(r.PerTenant, ot)
		}
	}
}

// Timeline folds reports of runs that follow one another in simulated
// time — a tenant device's policing epochs, a fleet's epochs — the one
// sequential fold beside Add's parallel one. Each Step is one stretch of
// time served side by side by the reports it takes: within a step they
// merge by Add, so counters and rates sum. Across steps the counters
// still sum, but each rate is the steps' rates weighted by the cycles
// each step served for, and so are the PerQueue and PerTenant rows'
// AchievedMpps.
type Timeline struct {
	rep   Report
	rates [5]timed
	// queues and tenants are the means of rep.PerQueue's and
	// rep.PerTenant's rows, by row.
	queues, tenants []timed
}

// Step appends one step served by reps side by side.
func (t *Timeline) Step(reps ...Report) {
	// Zeroed, every rate on rep holds the step's own sum after the merge,
	// and its cycles past what the mean has taken are the step's.
	t.each(func(rate *float64, _ uint64, _ *timed) { *rate = 0 })
	for _, o := range reps {
		t.rep.Add(o)
	}
	t.each(func(rate *float64, cycles uint64, m *timed) { m.add(*rate, cycles-m.cycles) })
}

// Report returns the fold of every step so far. Its maps and rows are
// the timeline's own: the next Step rewrites them.
func (t *Timeline) Report() Report {
	t.each(func(rate *float64, _ uint64, m *timed) { *rate = m.mean() })
	return t.rep
}

// each visits every rate on rep with the cycles behind it and its mean.
func (t *Timeline) each(fn func(rate *float64, cycles uint64, m *timed)) {
	r := &t.rep
	for i, rate := range [...]*float64{&r.OfferedMpps, &r.AchievedMpps, &r.OfferedGbps, &r.AchievedGbps, &r.FlushesPerS} {
		fn(rate, r.Cycles, &t.rates[i])
	}
	for len(t.queues) < len(r.PerQueue) {
		t.queues = append(t.queues, timed{})
	}
	for i := range r.PerQueue {
		fn(&r.PerQueue[i].AchievedMpps, r.PerQueue[i].Cycles, &t.queues[i])
	}
	for len(t.tenants) < len(r.PerTenant) {
		t.tenants = append(t.tenants, timed{})
	}
	for i := range r.PerTenant {
		fn(&r.PerTenant[i].AchievedMpps, r.PerTenant[i].Cycles, &t.tenants[i])
	}
}

// timed is a cycle-weighted mean of a rate over sequential steps.
type timed struct {
	sum    float64
	cycles uint64
}

func (m *timed) add(rate float64, cycles uint64) {
	m.sum += rate * float64(cycles)
	m.cycles += cycles
}

func (m timed) mean() float64 {
	if m.cycles == 0 {
		return 0
	}
	return m.sum / float64(m.cycles)
}
