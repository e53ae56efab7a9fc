package hwsim

import (
	"ehdl/internal/obs"
)

// probes is the simulator's observability surface: the cycle-level
// event tracer and the metric instruments, resolved once at
// construction so the hot path never touches the registry.
//
// The zero-overhead contract: s.probes stays nil unless Config.Trace or
// Config.Metrics is set, and every probe site guards with one pointer
// comparison. All bookkeeping below this line is paid only by opted-in
// runs.
type probes struct {
	tr *obs.Tracer

	occupancy    *obs.Histogram // occupied stages per cycle
	warDepth     *obs.Histogram // WAR shadow-buffer occupancy at capture
	flushPenalty *obs.Histogram // cycles from flush verdict to stall release
	cyclesPerPkt *obs.Histogram // forwarding latency distribution
	portOps      *obs.Counter   // map port operations, data plane
	contention   *obs.Counter   // cycles one map port served >1 operation
	backpressure *obs.Counter   // cycles the input held with work queued
	flushes      *obs.Counter   // flush episodes
	recoveries   *obs.Counter   // drain-and-restart sequences

	// Per-cycle working state, reset by endCycle.
	portUse  []uint32 // per-mapID operations this cycle
	portHot  []int    // mapIDs touched this cycle
	injected bool     // a packet entered stage 0 this cycle

	// Open flush episode (for the penalty measurement).
	flushActive bool
	flushStart  uint64
}

// Metric names under which the simulator registers its instruments.
const (
	metricStageOccupancy    = "hwsim.stage_occupancy"
	metricWARShadowDepth    = "hwsim.war_shadow_depth"
	metricFlushPenalty      = "hwsim.flush_penalty_cycles"
	metricCyclesPerPacket   = "hwsim.cycles_per_packet"
	metricMapPortOps        = "hwsim.map_port_ops"
	metricMapPortContention = "hwsim.map_port_contention_cycles"
	metricBackpressure      = "hwsim.inject_backpressure_cycles"
	metricFlushes           = "hwsim.flushes"
	metricRecoveries        = "hwsim.recoveries"
)

// newProbes resolves the instruments. A nil registry (tracing without
// metrics) accumulates into a private throwaway registry so the probe
// methods stay branch-free.
func newProbes(tr *obs.Tracer, reg *obs.Registry, nMaps, nStages int) *probes {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &probes{
		tr:           tr,
		occupancy:    reg.Histogram(metricStageOccupancy, obs.LinearBuckets(0, 1, nStages+1)),
		warDepth:     reg.Histogram(metricWARShadowDepth, obs.LinearBuckets(0, 1, 16)),
		flushPenalty: reg.Histogram(metricFlushPenalty, obs.ExpBuckets(2, 2, 10)),
		cyclesPerPkt: reg.Histogram(metricCyclesPerPacket, obs.ExpBuckets(8, 2, 12)),
		portOps:      reg.Counter(metricMapPortOps),
		contention:   reg.Counter(metricMapPortContention),
		backpressure: reg.Counter(metricBackpressure),
		flushes:      reg.Counter(metricFlushes),
		recoveries:   reg.Counter(metricRecoveries),
		portUse:      make([]uint32, nMaps),
	}
}

func (p *probes) onInject(cycle, seq uint64, pktLen, frames int) {
	p.tr.Emit(obs.Event{Cycle: cycle, Kind: obs.KindInject, Seq: int64(seq),
		Stage: obs.NoStage, Map: obs.NoMap, Aux: uint64(pktLen), Aux2: uint64(frames)})
}

func (p *probes) onQueueDrop(cycle uint64, pktLen int) {
	p.tr.Emit(obs.Event{Cycle: cycle, Kind: obs.KindQueueDrop, Seq: obs.NoSeq,
		Stage: obs.NoStage, Map: obs.NoMap, Aux: uint64(pktLen)})
}

func (p *probes) onStageEnter(cycle uint64, j *job, stage int) {
	if stage == 0 {
		p.injected = true
	}
	var done uint64
	if j.done {
		done = 1
	}
	p.tr.Emit(obs.Event{Cycle: cycle, Kind: obs.KindStageEnter, Seq: int64(j.seq),
		Stage: stage, Map: obs.NoMap, Aux: done})
}

func (p *probes) onStageExit(cycle uint64, j *job, stage int) {
	p.tr.Emit(obs.Event{Cycle: cycle, Kind: obs.KindStageExit, Seq: int64(j.seq),
		Stage: stage, Map: obs.NoMap})
}

func (p *probes) onPredicate(cycle uint64, j *job, stage int, taken bool, block int) {
	var aux uint64
	if taken {
		aux = 1
	}
	blk := obs.NoBlock
	if block >= 0 {
		blk = uint64(block)
	}
	p.tr.Emit(obs.Event{Cycle: cycle, Kind: obs.KindPredicate, Seq: int64(j.seq),
		Stage: stage, Map: obs.NoMap, Aux: aux, Aux2: blk})
}

func (p *probes) onWARShadow(cycle uint64, j *job, mapID, shadows, depth int) {
	p.warDepth.Observe(uint64(shadows))
	p.tr.Emit(obs.Event{Cycle: cycle, Kind: obs.KindWARShadow, Seq: int64(j.seq),
		Stage: obs.NoStage, Map: mapID, Aux: uint64(shadows), Aux2: uint64(depth)})
}

func (p *probes) onMapAccess(cycle uint64, j *job, stage, mapID int, op obs.MapOp) {
	p.portOps.Inc()
	if mapID >= 0 && mapID < len(p.portUse) {
		if p.portUse[mapID] == 0 {
			p.portHot = append(p.portHot, mapID)
		}
		p.portUse[mapID]++
	}
	p.tr.Emit(obs.Event{Cycle: cycle, Kind: obs.KindMapAccess, Seq: int64(j.seq),
		Stage: stage, Map: mapID, Aux: uint64(op)})
}

func (p *probes) onFlushBegin(cycle uint64, writeStage, from, mapID, victims int) {
	p.flushes.Inc()
	if !p.flushActive {
		p.flushActive = true
		p.flushStart = cycle
	}
	p.tr.Emit(obs.Event{Cycle: cycle, Kind: obs.KindFlushBegin, Seq: obs.NoSeq,
		Stage: writeStage, Map: mapID, Aux: uint64(victims), Aux2: uint64(from)})
}

// onFlushEnd closes the open flush episode when the stall releases.
// PolicyStall bubbles release through the same path but never open an
// episode, so the call is a no-op for them.
func (p *probes) onFlushEnd(cycle uint64) {
	if !p.flushActive {
		return
	}
	p.flushActive = false
	penalty := cycle - p.flushStart
	p.flushPenalty.Observe(penalty)
	p.tr.Emit(obs.Event{Cycle: cycle, Kind: obs.KindFlushEnd, Seq: obs.NoSeq,
		Stage: obs.NoStage, Map: obs.NoMap, Aux: penalty})
}

func (p *probes) onVerdict(cycle uint64, j *job, latency uint64) {
	p.cyclesPerPkt.Observe(latency)
	p.tr.Emit(obs.Event{Cycle: cycle, Kind: obs.KindVerdict, Seq: int64(j.seq),
		Stage: j.stage, Map: obs.NoMap, Aux: uint64(j.action), Aux2: latency})
}

func (p *probes) onScrub(cycle, words uint64, clean bool) {
	var aux2 uint64
	if clean {
		aux2 = 1
	}
	p.tr.Emit(obs.Event{Cycle: cycle, Kind: obs.KindScrub, Seq: obs.NoSeq,
		Stage: obs.NoStage, Map: obs.NoMap, Aux: words, Aux2: aux2})
}

func (p *probes) onCheckpoint(cycle uint64, entries int) {
	p.tr.Emit(obs.Event{Cycle: cycle, Kind: obs.KindCheckpoint, Seq: obs.NoSeq,
		Stage: obs.NoStage, Map: obs.NoMap, Aux: uint64(entries)})
}

// onRecovery also abandons any open flush episode: the drain-and-restart
// sequence resets the stall machinery, so no FlushEnd will arrive.
func (p *probes) onRecovery(cycle uint64, attempt int, backoff uint64) {
	p.recoveries.Inc()
	p.flushActive = false
	p.tr.Emit(obs.Event{Cycle: cycle, Kind: obs.KindRecovery, Seq: obs.NoSeq,
		Stage: obs.NoStage, Map: obs.NoMap, Aux: uint64(attempt), Aux2: backoff})
}

func (p *probes) onWatchdog(cycle, lastRetire uint64) {
	p.tr.Emit(obs.Event{Cycle: cycle, Kind: obs.KindWatchdog, Seq: obs.NoSeq,
		Stage: obs.NoStage, Map: obs.NoMap, Aux: lastRetire})
}

func (p *probes) onFault(cycle uint64, class int) {
	p.tr.Emit(obs.Event{Cycle: cycle, Kind: obs.KindFault, Seq: obs.NoSeq,
		Stage: obs.NoStage, Map: obs.NoMap, Aux: uint64(class)})
}

// endCycle folds the per-cycle working state into the metrics: stage
// occupancy, map-port contention (a port serving more than one
// operation in one cycle would need arbitration in hardware) and
// injection backpressure (work queued but nothing entered stage 0).
func (p *probes) endCycle(occupied, queued int) {
	p.occupancy.Observe(uint64(occupied))
	for _, id := range p.portHot {
		if p.portUse[id] > 1 {
			p.contention.Inc()
		}
		p.portUse[id] = 0
	}
	p.portHot = p.portHot[:0]
	if queued > 0 && !p.injected {
		p.backpressure.Inc()
	}
	p.injected = false
}
