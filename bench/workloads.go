package main

import (
	"encoding/binary"
	"fmt"

	"ehdl/internal/apps"
	"ehdl/internal/conformance"
	"ehdl/internal/core"
	"ehdl/internal/fleet"
	"ehdl/internal/hdl"
	"ehdl/internal/hwsim"
	"ehdl/internal/nic"
	"ehdl/internal/pktgen"
	"ehdl/internal/tenant"
)

const (
	clockHz = 250e6 // the modelled pipeline clock; cycles x 4 = ns
	// ringFrames is the pre-generated traffic ring the shell workloads
	// cycle, so the generator stays outside the timed window.
	ringFrames = 16384
	// gateFrames is the conformance sample taken from the head of each
	// workload's traffic.
	gateFrames = 2048
	frameLen   = 64
)

// simStats is what one chunk reports in simulated time, plus the frame
// ledger. Every field is a property of the compiled design and the
// seed, never of the host, so it must repeat bit for bit across trials
// (the runner compares whole values with ==).
type simStats struct {
	Frames           uint64
	Failed           uint64
	SimMpps          float64
	SimLatencyCycles float64
	CyclesPerPkt     float64
	FlushesPerKpkt   float64
	SteerMaxShare    float64
	FallbackSteers   float64
	ThrottledFrac    float64
	QuarantinedFrac  float64
	RingMaxShare     float64
}

// system is one set-up instance of the program, ready to take chunks.
type system interface {
	// chunk drives one timed unit of work and returns its ledger. An
	// error is a broken invariant, never a lost frame.
	chunk() (simStats, error)
	// fastPath reports whether the compiled engine serves.
	fastPath() bool
}

// workload is one named configuration. The program never sees the name:
// it receives a compiled app, a shell configuration and frames.
type workload struct {
	name string
	why  string
	// warmup chunks per trial are run and discarded (flow tables fill);
	// chunks are timed.
	warmup, chunks int
	// chunkFrames is the frames offered per chunk.
	chunkFrames int
	wantFast    bool
	// params describe the configuration in the result file; compare
	// refuses files whose params differ.
	params map[string]any

	// gate runs the three-way conformance oracle on the head of the
	// workload's traffic and returns the frames it judged.
	gate func(seed int64) (int, error)
	// build is everything before the first frame; its duration is one
	// setup_s sample.
	build func(w workload, seed int64, tr *Tracer) (system, error)
	// utilPct is design_util_pct.
	utilPct func(seed int64) (float64, error)
	// layers drives each layer on the workload's path directly.
	layers func(seed int64, o options, tr *Tracer, m metrics) error

	// engineProbe, where set, is the bare-engine loop the traced pass
	// runs once per trial; the budget check holds it against the chunks
	// and nic.self_ns is the chunk span minus it.
	engineProbe func(seed int64, o options) (*probe, error)

	// chunkMetric is the per-layer name of the traced chunk span, with
	// the factor that takes ns/frame to its unit.
	chunkMetric      string
	chunkMetricScale float64
	// budget lists the directly timed layers that block the result;
	// their sum is held against the end-to-end ns/frame. It is checked
	// only where the layers run strictly one after another.
	budget        []string
	budgetChecked bool
}

// ring cycles pre-generated frames. Engines copy a frame on Inject, so
// the ring is never modified.
type ring struct {
	frames [][]byte
	i      int
}

func (r *ring) next() []byte {
	f := r.frames[r.i]
	r.i++
	if r.i == len(r.frames) {
		r.i = 0
	}
	return f
}

// shellSpec configures one of the three nic.Shell workloads.
type shellSpec struct {
	app        func() *apps.App
	cfg        nic.ShellConfig
	dist       pktgen.Distribution
	flows      int
	offeredPps float64
}

func (s shellSpec) traffic(seed int64) pktgen.GeneratorConfig {
	t := s.app().Traffic
	t.Flows = s.flows
	t.Distribution = s.dist
	t.PacketLen = frameLen
	t.Seed = seed
	return t
}

func (s shellSpec) frames(seed int64, n int) [][]byte {
	return pktgen.NewGenerator(s.traffic(seed)).Batch(n)
}

// simConfig is the simulator template as nic.New hands it to an engine.
func (s shellSpec) simConfig() hwsim.Config {
	c := s.cfg.Sim
	c.ClockHz = clockHz
	return c
}

func (s shellSpec) queues() int {
	if s.cfg.Queues > 1 {
		return s.cfg.Queues
	}
	return 1
}

// compile assembles and compiles the app, one span per step.
func (s shellSpec) compile(tr *Tracer) (*apps.App, *core.Pipeline, error) {
	app := s.app()
	id := tr.begin("apps.program")
	prog, err := app.Program()
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = tr.begin("core.compile")
	pl, err := core.Compile(prog, core.Options{})
	tr.end(id)
	return app, pl, err
}

type shellSystem struct {
	spec        shellSpec
	sh          *nic.Shell
	ring        ring
	chunkFrames int
}

func (s shellSpec) build(seed int64, chunkFrames int, tr *Tracer) (*shellSystem, error) {
	app, pl, err := s.compile(tr)
	if err != nil {
		return nil, err
	}
	id := tr.begin("nic.new")
	sh, err := nic.New(pl, s.cfg)
	if err == nil {
		err = app.Setup(sh.Maps())
	}
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("pktgen.pregen")
	frames := s.frames(seed, ringFrames)
	tr.end(id)
	return &shellSystem{spec: s, sh: sh, ring: ring{frames: frames}, chunkFrames: chunkFrames}, nil
}

func (s *shellSystem) fastPath() bool { return s.sh.FastPath() }

func (s *shellSystem) chunk() (simStats, error) {
	rep, err := s.sh.RunLoad(s.ring.next, s.chunkFrames, s.spec.offeredPps)
	if err != nil {
		return simStats{}, err
	}
	return shellStats(rep), nil
}

// shellStats folds a nic.Report into the chunk ledger. Frames the
// report cannot account for count as failed beside the lost ones.
func shellStats(rep nic.Report) simStats {
	st := simStats{
		Frames:           rep.Sent,
		Failed:           rep.Lost,
		SimMpps:          rep.AchievedMpps,
		SimLatencyCycles: rep.AvgLatencyNs * clockHz / 1e9,
		FallbackSteers:   float64(rep.SteerFallbacks),
	}
	if accounted := rep.Received + rep.Lost; accounted < rep.Sent {
		st.Failed += rep.Sent - accounted
	} else {
		st.Failed += accounted - rep.Sent
	}
	if rep.Received > 0 {
		st.CyclesPerPkt = float64(rep.Cycles) / float64(rep.Received)
	}
	if rep.Sent > 0 {
		st.FlushesPerKpkt = 1e3 * float64(rep.Flushes) / float64(rep.Sent)
		for _, q := range rep.PerQueue {
			if share := float64(q.Steered) / float64(rep.Sent); share > st.SteerMaxShare {
				st.SteerMaxShare = share
			}
		}
	}
	return st
}

func (s shellSpec) workload(name, why string, chunkFrames, chunks int) workload {
	app := s.app()
	dist := "uniform"
	if s.dist == pktgen.Zipf {
		dist = "zipf"
	}
	return workload{
		name: name, why: why,
		warmup: 1, chunks: chunks, chunkFrames: chunkFrames,
		wantFast:    s.cfg.FastPath,
		chunkMetric: "nic.runload_ns", chunkMetricScale: 1,
		build: func(w workload, seed int64, tr *Tracer) (system, error) {
			return s.build(seed, w.chunkFrames, tr)
		},
		params: map[string]any{
			"app": app.Name, "fastpath": s.cfg.FastPath, "queues": s.queues(),
			"input_queue_packets": s.cfg.Sim.InputQueuePackets,
			"flows":               s.flows, "distribution": dist, "frame_len": frameLen,
			"offered_mpps": s.offeredPps / 1e6, "ring_frames": ringFrames,
		},
		gate: func(seed int64) (int, error) {
			sample := s.frames(seed, gateFrames)
			return len(sample), conformance.DiffAppThreeWay(s.app(), sample, conformance.Config{})
		},
		utilPct: func(int64) (float64, error) {
			_, pl, err := s.compile(nil)
			if err != nil {
				return 0, err
			}
			res := hdl.EstimateDesign(pl)
			if q := s.queues(); q > 1 {
				res = hdl.EstimateDesignReplicated(pl, q)
			}
			return res.PercentOf(hdl.AlveoU50()).Max(), nil
		},
	}
}

// fleetSpec configures the fleet_tenants workload: what
// `ehdl-fleet -tenants firewall:0.4,router:0.3,dnat:0.3` builds.
type fleetSpec struct {
	tenants      string
	devices      int
	epochPackets int
	epochs       int
}

func (f fleetSpec) specs() ([]tenant.Spec, error) {
	return tenant.ParseSpecList(f.tenants, nic.ShellConfig{})
}

func (f fleetSpec) config(seed int64, specs []tenant.Spec) fleet.Config {
	return fleet.Config{Devices: f.devices, EpochPackets: f.epochPackets, Seed: seed, Tenants: specs}
}

type fleetSystem struct {
	ctl    *fleet.Controller
	epochs int
}

func (f fleetSpec) build(seed int64, epochs int, tr *Tracer) (*fleetSystem, error) {
	id := tr.begin("tenant.parse_specs")
	specs, err := f.specs()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("fleet.new")
	ctl, err := fleet.New(f.config(seed, specs))
	tr.end(id)
	if err != nil {
		return nil, err
	}
	return &fleetSystem{ctl: ctl, epochs: epochs}, nil
}

// fastPath is false: fleet and tenant hard-wire the interpreter.
func (s *fleetSystem) fastPath() bool { return false }

func (s *fleetSystem) chunk() (simStats, error) {
	rep, err := s.ctl.Run(s.epochs)
	if err != nil {
		return simStats{}, err
	}
	if !rep.Accounted() || !rep.Device.Accounted() {
		return simStats{}, fmt.Errorf("fleet.Report.Accounted: loss ledger does not balance")
	}
	st := simStats{
		Frames: rep.Generated,
		// Refused frames (throttled, quarantined) count as failed.
		Failed:           rep.Generated + rep.ExtraInjected - rep.Delivered,
		SimLatencyCycles: rep.Device.AvgLatencyNs * clockHz / 1e9,
		ThrottledFrac:    float64(rep.ThrottledLoss) / float64(rep.Generated),
		QuarantinedFrac:  float64(rep.QuarantinedLoss) / float64(rep.Generated),
	}
	if rep.Device.Cycles > 0 {
		st.SimMpps = float64(rep.Delivered) / (float64(rep.Device.Cycles) / clockHz) / 1e6
		st.CyclesPerPkt = float64(rep.Device.Cycles) / float64(rep.Device.Received)
		st.FlushesPerKpkt = 1e3 * float64(rep.Device.Flushes) / float64(rep.Device.Sent)
	}
	for _, d := range rep.PerDevice {
		if share := float64(d.Received) / float64(rep.Delivered); share > st.RingMaxShare {
			st.RingMaxShare = share
		}
	}
	return st, nil
}

// tenantBatches builds n mux arrivals and splits them by VLAN into the
// untagged sub-batches each tenant's pipeline sees.
func tenantBatches(specs []tenant.Spec, seed int64, n int) (tagged [][]byte, sub [][][]byte) {
	tagged = tenant.NewTrafficMux(specs, seed).Batch(n)
	sub = make([][][]byte, len(specs))
	for _, pkt := range tagged {
		vid := binary.BigEndian.Uint16(pkt[14:16]) & 0x0fff
		for i, sp := range specs {
			if sp.VLAN == vid {
				plain := append(append([]byte(nil), pkt[:12]...), pkt[16:]...)
				sub[i] = append(sub[i], plain)
			}
		}
	}
	return tagged, sub
}

// newTenantDevice admits the spec list on one shard the way
// fleet.New does.
func newTenantDevice(specs []tenant.Spec, epochPackets int, seed int64) (*tenant.Device, error) {
	dev := tenant.NewDevice(tenant.DeviceConfig{EpochPackets: epochPackets, Seed: seed})
	for _, sp := range specs {
		if _, err := dev.AdmitTenant(sp); err != nil {
			return nil, err
		}
	}
	return dev, nil
}

func (f fleetSpec) workload(name, why string) workload {
	return workload{
		name: name, why: why,
		warmup: 0, chunks: 1, chunkFrames: f.epochs * f.epochPackets,
		wantFast:    false,
		chunkMetric: "fleet.epoch_ms", chunkMetricScale: float64(f.epochPackets) / 1e6,
		budget: []string{"pktgen.next_ns", "rss.hash_ns", "tenant.serve_ns"},
		build: func(w workload, seed int64, tr *Tracer) (system, error) {
			return f.build(seed, w.chunkFrames/f.epochPackets, tr)
		},
		layers: f.fleetLayers,
		params: map[string]any{
			"tenants": f.tenants, "devices": f.devices,
			"epoch_packets": f.epochPackets, "epochs_per_chunk": f.epochs, "frame_len": frameLen,
		},
		gate: func(seed int64) (int, error) {
			specs, err := f.specs()
			if err != nil {
				return 0, err
			}
			_, sub := tenantBatches(specs, seed, len(specs)*gateFrames)
			judged := 0
			for i, sp := range specs {
				sample := sub[i]
				if len(sample) > gateFrames {
					sample = sample[:gateFrames]
				}
				judged += len(sample)
				if err := conformance.DiffAppThreeWay(sp.App, sample, conformance.Config{}); err != nil {
					return judged, fmt.Errorf("tenant %s: %w", sp.Name, err)
				}
			}
			return judged, nil
		},
		utilPct: func(seed int64) (float64, error) {
			specs, err := f.specs()
			if err != nil {
				return 0, err
			}
			dev, err := newTenantDevice(specs, f.epochPackets, seed)
			if err != nil {
				return 0, err
			}
			return dev.Utilisation(), nil
		},
	}
}

var (
	fwSpec = shellSpec{
		app: apps.Firewall, cfg: nic.ShellConfig{FastPath: true},
		dist: pktgen.Uniform, flows: 10000,
		offeredPps: pktgen.LineRatePPS(100e9, frameLen),
	}
	toySpec = shellSpec{
		app:  apps.Toy,
		cfg:  nic.ShellConfig{FastPath: true, Queues: 4, Sim: hwsim.Config{InputQueuePackets: 64}},
		dist: pktgen.Uniform, flows: 1024,
		offeredPps: 0.85 * clockHz * 4,
	}
	leakySpec = shellSpec{
		app: apps.LeakyBucket, cfg: nic.ShellConfig{},
		dist: pktgen.Zipf, flows: 50000,
		offeredPps: 125e6,
	}
	tenantsSpec = fleetSpec{tenants: "firewall:0.4,router:0.3,dnat:0.3", devices: 4, epochPackets: 4096, epochs: 10}
)

// workloads returns the four benchmark workloads in reporting order.
func workloads() []workload {
	fw := fwSpec.workload("fw_q1_fast",
		"compiled engine + map lookup + nic loop do all the work and rss none: an engine/maps/nic change shows here, an rss change must not",
		262144, 10)
	fw.layers, fw.engineProbe = fwSpec.shellLayers, fwSpec.engineProbe
	fw.budget, fw.budgetChecked = []string{"fastpath.exec_ns"}, true

	toy := toySpec.workload("toy_q4_fast",
		"cheapest pipeline behind the full 4-queue RSS path: Toeplitz hash, dispatch, channel hand-off and collector dominate, the engine does little",
		262144, 10)
	toy.layers, toy.engineProbe = toySpec.rssLayers, toySpec.rssProbe
	toy.budget = []string{"rss.dispatch_ns", "fastpath.exec_ns"}

	leaky := leakySpec.workload("leaky_zipf_interp",
		"cycle-accurate interpreter with a read-modify-write per frame and real RAW-hazard flushes: the only workload whose simulated metrics are sensitive",
		ringFrames, 8)
	leaky.layers, leaky.engineProbe = leakySpec.shellLayers, leakySpec.engineProbe
	leaky.budget, leaky.budgetChecked = []string{"hwsim.exec_ns"}, true

	fl := tenantsSpec.workload("fleet_tenants",
		"top of the stack: per-epoch traffic mux, Toeplitz hash + ring partition, tenant classify + police, twelve interpreter shells, report fold")

	return []workload{fw, toy, leaky, fl}
}
