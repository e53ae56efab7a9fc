package hdl

import "ehdl/internal/core"

// replicatedParts breaks a multi-queue deployment's resource bill into
// the pieces that scale differently with the replica count: the stage
// datapath is stamped out once per queue, banked maps multiply with it,
// shared maps pay only for extra read ports, and the RSS front end
// (hash, distributor, collector) grows linearly but from a small base.
type replicatedParts struct {
	// Queues is the replica count the estimate was built for.
	Queues int
	// PerReplicaLogic is one copy of the stage datapath, maps excluded.
	PerReplicaLogic Resources
	// Logic is PerReplicaLogic stamped out Queues times.
	Logic Resources
	// SharedMaps covers maps the data plane never writes: one memory
	// block regardless of the replica count, plus a port and an arbiter
	// per extra replica.
	SharedMaps Resources
	// BankedMaps covers per-flow and counter maps: a full block per
	// replica, the hardware analogue of the kernel's per-CPU maps.
	BankedMaps Resources
	// FrontEnd is the RSS machinery itself: Toeplitz hash, indirection
	// table, distributor crossbar, per-queue ingress FIFOs and the
	// completion collector. Zero for a single queue — the classifier
	// only exists when there is a choice to make.
	FrontEnd Resources
}

// Total sums the parts.
func (p replicatedParts) Total() Resources {
	return p.Logic.Add(p.SharedMaps).Add(p.BankedMaps).Add(p.FrontEnd)
}

// estimateReplicatedParts prices an n-queue deployment of a compiled
// pipeline part by part. At n=1 the total is exactly EstimatePipeline:
// no front end, no extra ports, one copy of everything.
func estimateReplicatedParts(p *core.Pipeline, queues int) replicatedParts {
	if queues < 1 {
		queues = 1
	}
	n := elaborate(p)
	parts := replicatedParts{Queues: queues}
	parts.PerReplicaLogic = n.stageLogic()
	parts.Logic = parts.PerReplicaLogic.Scale(queues)

	for i := range n.maps {
		m := &n.maps[i]
		if m.sharing == core.SharingShared {
			parts.SharedMaps = parts.SharedMaps.Add(m.cost())
			if queues > 1 {
				parts.SharedMaps = parts.SharedMaps.Add(sharedPortCost(m.channels, queues))
			}
			continue
		}
		parts.BankedMaps = parts.BankedMaps.Add(m.cost().Scale(queues))
	}

	parts.FrontEnd = rssFrontEndCost(queues)
	return parts
}

// EstimateReplicated returns the total pipeline resources of an n-queue
// deployment (no shell).
func EstimateReplicated(p *core.Pipeline, queues int) Resources {
	return estimateReplicatedParts(p, queues).Total()
}

// EstimateDesignReplicated is EstimateReplicated plus the NIC shell —
// the multi-queue analogue of the Figure 10 quantity. The shell is paid
// once: Corundum already terminates all queues of the 100 Gbps MAC.
func EstimateDesignReplicated(p *core.Pipeline, queues int) Resources {
	return EstimateReplicated(p, queues).Add(CorundumShell())
}

// sharedPortCost prices the extra access hardware a shared map needs
// when more than one replica reads it: a duplicated channel interface
// per extra replica (the block's own channels are in mapNode.cost) and
// a round-robin arbiter sized to the port count. The memory itself is
// not duplicated — that is the point of sharing.
func sharedPortCost(channels, queues int) Resources {
	var r Resources
	r.LUTs += 90 * channels * (queues - 1)
	r.FFs += 70 * channels * (queues - 1)
	r.LUTs += 40 * queues // arbitration tree over the widened port set
	return r
}

// rssFrontEndCost prices the scale-out machinery of Section 5's
// replicated deployment: one Toeplitz hash over the 12-byte tuple, the
// 128-entry indirection table, and per-queue distribution/collection.
// A single-queue design carries none of it.
func rssFrontEndCost(queues int) Resources {
	if queues <= 1 {
		return Resources{}
	}
	var r Resources
	// Pipelined Toeplitz XOR tree plus the 320-bit key schedule.
	r.LUTs += 1850
	r.FFs += 640
	// Indirection table: 128 entries of log2(n) bits fit in LUTRAM.
	r.LUTs += 60
	// Distributor crossbar: steering muxes and valid fan-out per queue.
	r.LUTs += 90 * queues
	r.FFs += 48 * queues
	// Per-queue ingress FIFO: one frame-wide BRAM burst buffer each.
	r.LUTs += 220 * queues
	r.FFs += 180 * queues
	r.BRAM36 += queues
	// Completion collector: per-queue egress arbitration plus the
	// shared reorder-free merge point.
	r.LUTs += 120*queues + 200
	r.FFs += 60 * queues
	return r
}
