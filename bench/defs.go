package main

// metricDef declares one benchmark metric. BENCHMARK.json at the repo
// root carries the same names, units, directions and bounds; the smoke
// test holds the two against each other.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	// Exact marks a property of the compiled design on the modelled
	// hardware: deterministic for a fixed seed, so `compare` accepts no
	// difference at all. Its Bound only has to cover how far the value
	// moves from one seed to the next.
	Exact bool `json:"-"`
	// Abs is absolute slack added to the bound (a count near zero moves
	// by large ratios when one allocation appears).
	Abs float64 `json:"-"`
}

// endToEndDefs are what a user of the system sees, per workload.
var endToEndDefs = []metricDef{
	{Name: "host_mpps", Unit: "Mpkt/s", Better: "higher", Bound: 0.25},
	{Name: "host_allocs_per_pkt", Unit: "count", Better: "lower", Bound: 0.05, Abs: 0.02},
	{Name: "sim_mpps", Unit: "Mpkt/s", Better: "higher", Bound: 0.02, Exact: true},
	{Name: "sim_latency_cycles", Unit: "cycles", Better: "lower", Bound: 0.15, Exact: true},
	{Name: "design_util_pct", Unit: "%", Better: "lower", Bound: 0.02, Exact: true},
	{Name: "delivered_frac", Unit: "share", Better: "higher", Bound: 0.001, Exact: true},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayerDefs are the single-layer numbers of the traced pass. A layer
// that is not on a workload's path reads 0 there.
var perLayerDefs = []metricDef{
	{Name: "pktgen.next_ns", Unit: "ns", Better: "lower"},
	{Name: "rss.hash_ns", Unit: "ns", Better: "lower"},
	{Name: "rss.dispatch_ns", Unit: "ns", Better: "lower"},
	{Name: "rss.engine_ns", Unit: "ns", Better: "lower"},
	{Name: "rss.overhead_ns", Unit: "ns", Better: "lower"},
	{Name: "rss.scaling_x", Unit: "ratio", Better: "higher"},
	{Name: "rss.steer_max_share", Unit: "share", Better: "lower"},
	{Name: "rss.fallback_steers", Unit: "count", Better: "lower"},
	{Name: "fastpath.exec_ns", Unit: "ns", Better: "lower"},
	{Name: "fastpath.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "fastpath.allocs_per_pkt", Unit: "count", Better: "lower"},
	{Name: "hwsim.exec_ns", Unit: "ns", Better: "lower"},
	{Name: "hwsim.step_ns", Unit: "ns", Better: "lower"},
	{Name: "hwsim.cycles_per_pkt", Unit: "cycles", Better: "lower"},
	{Name: "hwsim.flushes_per_kpkt", Unit: "count", Better: "lower"},
	{Name: "maps.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "maps.update_ns", Unit: "ns", Better: "lower"},
	{Name: "nic.runload_ns", Unit: "ns", Better: "lower"},
	{Name: "nic.self_ns", Unit: "ns", Better: "lower"},
	{Name: "nic.new_ms", Unit: "ms", Better: "lower"},
	{Name: "nic.fastpath_engaged", Unit: "count", Better: "higher"},
	{Name: "nic.q1_mpps", Unit: "Mpkt/s", Better: "higher"},
	{Name: "tenant.serve_ns", Unit: "ns", Better: "lower"},
	{Name: "tenant.self_ns", Unit: "ns", Better: "lower"},
	{Name: "tenant.throttled_frac", Unit: "share", Better: "lower"},
	{Name: "tenant.quarantined_frac", Unit: "share", Better: "lower"},
	{Name: "fleet.epoch_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.self_ns", Unit: "ns", Better: "lower"},
	{Name: "fleet.ring_max_share", Unit: "share", Better: "lower"},
	{Name: "core.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "hdl.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "hdl.estimate_ms", Unit: "ms", Better: "lower"},
	{Name: "core.stages", Unit: "count", Better: "lower"},
	{Name: "hdl.vhdl_bytes", Unit: "B", Better: "lower"},
	{Name: "host.cpu_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "host.chunk_ns_p90", Unit: "ns", Better: "lower"},
	{Name: "host.alloc_bytes_per_pkt", Unit: "B", Better: "lower"},
	{Name: "host.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "host.peak_heap_mib", Unit: "MiB", Better: "lower"},
	{Name: "budget.sum_ns", Unit: "ns", Better: "lower"},
	{Name: "budget.e2e_ns", Unit: "ns", Better: "lower"},
	{Name: "budget.residual_pct", Unit: "%", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}
