package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"ehdl/internal/core"
	"ehdl/internal/ebpf"
	"ehdl/internal/fastpath"
	"ehdl/internal/hdl"
	"ehdl/internal/hwsim"
	"ehdl/internal/maps"
	"ehdl/internal/nic"
	"ehdl/internal/pktgen"
	"ehdl/internal/rss"
	"ehdl/internal/tenant"
)

// Layer loops time a chunk-sized number of calls against one layer's
// exported API with a single clock pair per span, never per packet.
const (
	loopCalls = 65536 // minimum calls per span at full scale
	loopReps  = 5     // spans per layer; the median is reported
	setupReps = 9     // repetitions of a one-shot step (compile, generate)
)

// metrics collects the samples behind each per-layer number.
type metrics map[string][]float64

func (m metrics) set(name string, v float64) { m[name] = []float64{v} }

func (m metrics) get(name string) float64 { return median(m[name]) }

// calls scales a loop length; the smoke test runs a fraction of it.
func (o options) calls(base int) int {
	n := int(float64(base) * o.loopScale)
	if n < 512 {
		n = 512
	}
	return n
}

func (o options) reps(base int) int {
	if o.loopScale < 1 {
		return 1
	}
	return base
}

// loop runs fn reps times, one span each, and records the span length
// divided by calls as one sample of name, scaled by unit (1 for ns per
// call, 1e-6 for ms per call).
func (m metrics) loop(tr *Tracer, name string, reps, calls int, unit float64, fn func() error) error {
	for i := 0; i < reps; i++ {
		id := tr.begin("layer:" + name)
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		m[name] = append(m[name], float64(d.Nanoseconds())*unit/float64(calls))
	}
	return nil
}

var sink int // keeps the hash loop's result alive

// driveCore offers count frames to one engine through RunLoad's pacing
// ledger (the float due accumulator, several arrivals per cycle when
// the offered rate exceeds the clock) and steps it until it drains.
func driveCore(eng hwsim.Core, next func() []byte, count int, offeredPps float64) error {
	cyclesPerPacket := clockHz / offeredPps
	sent, due := 0, 0.0
	for sent < count || eng.Busy() {
		for sent < count && due <= 0 {
			eng.Inject(next())
			sent++
			due += cyclesPerPacket
		}
		if err := eng.Step(); err != nil {
			return err
		}
		due--
	}
	return nil
}

// designLayers times the compiler back end for one app: informational,
// none of it is on the serving path.
func designLayers(prog *ebpf.Program, o options, tr *Tracer, m metrics) (*core.Pipeline, error) {
	var pl *core.Pipeline
	err := m.loop(tr, "core.compile_ms", o.reps(setupReps), 1, 1e-6, func() (err error) {
		pl, err = core.Compile(prog, core.Options{})
		return err
	})
	if err != nil {
		return nil, err
	}
	var vhdl string
	m.loop(tr, "hdl.generate_ms", o.reps(setupReps), 1, 1e-6, func() error { vhdl = hdl.Generate(pl); return nil })
	m.loop(tr, "hdl.estimate_ms", o.reps(setupReps), 1, 1e-6, func() error { hdl.EstimateDesign(pl); return nil })
	m.set("core.stages", float64(len(pl.Stages)))
	m.set("hdl.vhdl_bytes", float64(len(vhdl)))
	return pl, nil
}

// commonShellLayers covers what every shell workload has: the traffic
// generator, the compiler back end, shell construction and the map the
// app keeps its per-flow state in.
func (s shellSpec) commonShellLayers(seed int64, o options, tr *Tracer, m metrics) (*core.Pipeline, [][]byte, error) {
	gen := pktgen.NewGenerator(s.traffic(seed))
	n := o.calls(loopCalls)
	m.loop(tr, "pktgen.next_ns", o.reps(loopReps), n, 1, func() error {
		for i := 0; i < n; i++ {
			gen.Next()
		}
		return nil
	})
	app := s.app()
	prog, err := app.Program()
	if err != nil {
		return nil, nil, err
	}
	pl, err := designLayers(prog, o, tr, m)
	if err != nil {
		return nil, nil, err
	}
	err = m.loop(tr, "nic.new_ms", o.reps(setupReps), 1, 1e-6, func() error {
		sh, err := nic.New(pl, s.cfg)
		if err != nil {
			return err
		}
		return app.Setup(sh.Maps())
	})
	if err != nil {
		return nil, nil, err
	}
	frames := s.frames(seed, ringFrames)
	return pl, frames, mapLayers(prog, frames, o, tr, m)
}

// mapLayers times Lookup and Update on the app's first hash map, keyed
// by the bytes at the IPv4 source address of the workload's own frames
// (the apps key their flow state on a prefix of the 5-tuple).
func mapLayers(prog *ebpf.Program, frames [][]byte, o options, tr *Tracer, m metrics) error {
	for _, spec := range prog.Maps {
		if spec.Kind != ebpf.MapHash {
			continue
		}
		const srcOff = pktgen.EthHeaderLen + 12
		keys := make([][]byte, len(frames))
		for i, f := range frames {
			keys[i] = f[srcOff : srcOff+spec.KeySize]
		}
		mp, err := maps.New(spec)
		if err != nil {
			return err
		}
		value := make([]byte, spec.ValueSize)
		n := o.calls(4 * loopCalls)
		err = m.loop(tr, "maps.update_ns", o.reps(loopReps), n, 1, func() error {
			for i := 0; i < n; i++ {
				if err := mp.Update(keys[i%len(keys)], value, maps.UpdateAny); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		return m.loop(tr, "maps.lookup_ns", o.reps(loopReps), n, 1, func() error {
			for i := 0; i < n; i++ {
				if _, ok := mp.Lookup(keys[i%len(keys)]); !ok {
					return fmt.Errorf("key %d absent after update", i%len(keys))
				}
			}
			return nil
		})
	}
	return nil
}

// probe is a prepared layer-drive loop against one bare engine: every
// run is one span of calls frames.
type probe struct {
	name  string
	calls int
	run   func() error
}

// drive records reps spans of a probe.
func (m metrics) drive(tr *Tracer, p *probe, reps int) error {
	return m.loop(tr, p.name, reps, p.calls, 1, p.run)
}

// coreProbe builds the engine the shell would serve from — compiled
// machine or interpreter — outside any shell, sets the app up on it and
// runs one span untimed so the flow table is as full as the warm-up
// chunk leaves it.
func (s shellSpec) coreProbe(pl *core.Pipeline, frames [][]byte, offeredPps float64, o options) (*probe, error) {
	var (
		eng hwsim.Core
		err error
	)
	p := &probe{name: "hwsim.exec_ns", calls: o.calls(loopCalls)}
	if s.cfg.FastPath {
		p.name, p.calls = "fastpath.exec_ns", o.calls(4*loopCalls)
		eng, err = fastpath.New(pl, s.simConfig())
	} else {
		eng, err = hwsim.New(pl, s.simConfig())
	}
	if err != nil {
		return nil, err
	}
	if err := s.app().Setup(eng.Maps()); err != nil {
		return nil, err
	}
	r := &ring{frames: frames}
	p.run = func() error { return driveCore(eng, r.next, p.calls, offeredPps) }
	return p, p.run()
}

// engineProbe is the single-queue workloads' engine loop. The traced
// pass runs it once per trial, next to the chunks it is held against, so
// a slow stretch of the machine lands on both sides of the budget.
func (s shellSpec) engineProbe(seed int64, o options) (*probe, error) {
	_, pl, err := s.compile(nil)
	if err != nil {
		return nil, err
	}
	return s.coreProbe(pl, s.frames(seed, ringFrames), s.offeredPps, o)
}

// fastExtras times fastpath.Compile and counts the compiled engine's
// heap allocations per frame (must stay ~0) over one untimed loop.
func (s shellSpec) fastExtras(pl *core.Pipeline, frames [][]byte, offeredPps float64, o options, tr *Tracer, m metrics) (*probe, error) {
	err := m.loop(tr, "fastpath.compile_ms", o.reps(setupReps), 1, 1e-6, func() error {
		_, err := fastpath.Compile(pl)
		return err
	})
	if err != nil {
		return nil, err
	}
	p, err := s.coreProbe(pl, frames, offeredPps, o)
	if err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = p.run()
	runtime.ReadMemStats(&after)
	m.set("fastpath.allocs_per_pkt", float64(after.Mallocs-before.Mallocs)/float64(p.calls))
	return p, err
}

// shellLayers is the layer set of the single-queue workloads; their
// engine loop is the per-trial engineProbe.
func (s shellSpec) shellLayers(seed int64, o options, tr *Tracer, m metrics) error {
	pl, frames, err := s.commonShellLayers(seed, o, tr, m)
	if err != nil || !s.cfg.FastPath {
		return err
	}
	_, err = s.fastExtras(pl, frames, s.offeredPps, o, tr, m)
	return err
}

// rssProbe is the multi-queue workload's engine loop: the whole
// rss.Engine (dispatcher, workers, collector) without the shell, one
// Start / Offer x N / Drain session per span, nil onComplete.
func (s shellSpec) rssProbe(seed int64, o options) (*probe, error) {
	_, pl, err := s.compile(nil)
	if err != nil {
		return nil, err
	}
	eng, err := rss.NewEngine(pl, rss.Config{Queues: s.queues(), Batch: s.cfg.Batch, Sim: s.simConfig(), FastPath: s.cfg.FastPath})
	if err != nil {
		return nil, err
	}
	if err := s.app().Setup(eng.HostMaps()); err != nil {
		return nil, err
	}
	r := &ring{frames: s.frames(seed, ringFrames)}
	p := &probe{name: "rss.engine_ns", calls: o.calls(4 * loopCalls)}
	p.run = func() error {
		if err := eng.Start(clockHz/s.offeredPps, nil); err != nil {
			return err
		}
		for i := 0; i < p.calls; i++ {
			eng.Offer(r.next())
		}
		_, err := eng.Drain()
		return err
	}
	return p, p.run()
}

// rssLayers is the layer set of toy_q4_fast: each serial stage of the
// multi-queue path alone (the whole engine is the per-trial rssProbe),
// then the same frames through one queue.
func (s shellSpec) rssLayers(seed int64, o options, tr *Tracer, m metrics) error {
	pl, frames, err := s.commonShellLayers(seed, o, tr, m)
	if err != nil {
		return err
	}
	queues := s.queues()
	n := o.calls(4 * loopCalls)
	reps := o.reps(loopReps)

	hasher, err := rss.NewHasher(nil)
	if err != nil {
		return err
	}
	ind, err := rss.NewIndirection(queues)
	if err != nil {
		return err
	}
	r := ring{frames: frames}
	m.loop(tr, "rss.hash_ns", reps, n, 1, func() error {
		for i := 0; i < n; i++ {
			if h, ok := hasher.HashPacket(r.next()); ok {
				sink += ind.QueueFor(h)
			}
		}
		return nil
	})

	cyclesPerPacket := clockHz / s.offeredPps
	err = m.loop(tr, "rss.dispatch_ns", reps, n, 1, func() error {
		disp, err := rss.NewDispatcher(rss.DispatcherConfig{Queues: queues, Batch: s.cfg.Batch, CyclesPerPacket: cyclesPerPacket})
		if err != nil {
			return err
		}
		var wg sync.WaitGroup
		for q := 0; q < queues; q++ {
			wg.Add(1)
			go func(in <-chan []rss.Item) {
				defer wg.Done()
				for range in {
				}
			}(disp.Sink(q))
		}
		for i := 0; i < n; i++ {
			disp.Offer(r.next())
		}
		disp.Close()
		wg.Wait()
		return nil
	})
	if err != nil {
		return err
	}

	// One replica sees 1/queues of the offered rate.
	perQueue := s.offeredPps / float64(queues)
	exec, err := s.fastExtras(pl, frames, perQueue, o, tr, m)
	if err != nil {
		return err
	}
	if err := m.drive(tr, exec, reps); err != nil {
		return err
	}
	m.set("rss.overhead_ns", m.get("rss.engine_ns")-m.get("fastpath.exec_ns"))

	// The same frames through one queue at the same per-queue load.
	q1 := s.cfg
	q1.Queues = 0
	sh, err := nic.New(pl, q1)
	if err != nil {
		return err
	}
	if err := s.app().Setup(sh.Maps()); err != nil {
		return err
	}
	if !sh.FastPath() {
		return checkError{"nic.fastpath_engaged", "single-queue reference fell back to the interpreter"}
	}
	for i := 0; i < reps; i++ {
		id := tr.begin("layer:nic.q1_mpps")
		t0 := time.Now()
		rep, err := sh.RunLoad(r.next, n, perQueue)
		d := time.Since(t0)
		tr.end(id)
		if err != nil {
			return err
		}
		if rep.Lost > 0 || rep.Sent != rep.Received {
			return checkError{"nic.Report.Accounted", fmt.Sprintf("single-queue reference lost %d of %d frames", rep.Lost, rep.Sent)}
		}
		m["nic.q1_mpps"] = append(m["nic.q1_mpps"], float64(n)/d.Seconds()/1e6)
	}
	return nil
}

// fleetLayers is the layer set of fleet_tenants: the traffic mux, the
// cluster-level flow hash, one shard's Serve, and the same sub-batches
// through bare shells and bare interpreters.
func (f fleetSpec) fleetLayers(seed int64, o options, tr *Tracer, m metrics) error {
	specs, err := f.specs()
	if err != nil {
		return err
	}
	for _, sp := range specs {
		prog, err := sp.App.Program()
		if err != nil {
			return err
		}
		// A shard carries every tenant's design: the back-end costs add.
		one := metrics{}
		if _, err := designLayers(prog, o, tr, one); err != nil {
			return err
		}
		for name := range one {
			m.set(name, m.get(name)+one.get(name))
		}
	}

	n := o.calls(loopCalls)
	reps := o.reps(3)
	mux := tenant.NewTrafficMux(specs, seed)
	m.loop(tr, "pktgen.next_ns", reps, n, 1, func() error {
		for i := 0; i < n; i++ {
			mux.Next()
		}
		return nil
	})

	// One shard sees about 1/devices of every epoch's slice.
	batchLen := f.epochPackets / f.devices
	batches := n / batchLen
	if batches < 1 {
		batches = 1
	}
	n = batches * batchLen
	tagged, sub := tenantBatches(specs, seed, batchLen)

	hasher, err := rss.NewHasher(nil)
	if err != nil {
		return err
	}
	m.loop(tr, "rss.hash_ns", reps, n, 1, func() error {
		for i := 0; i < n; i++ {
			if h, ok := hasher.HashPacket(tagged[i%batchLen]); ok {
				sink += int(h)
			}
		}
		return nil
	})

	dev, err := newTenantDevice(specs, f.epochPackets, seed)
	if err != nil {
		return err
	}
	offered := fleet50Mpps
	err = m.loop(tr, "tenant.serve_ns", reps, n, 1, func() error {
		for b := 0; b < batches; b++ {
			rep, err := dev.Serve(tagged, offered)
			if err != nil {
				return err
			}
			if !rep.Accounted() {
				return checkError{"nic.Report.Accounted", "tenant.Device.Serve ledger does not balance"}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// The same untagged sub-batches through three bare shells, then
	// through three bare interpreters.
	shells := make([]*nic.Shell, len(specs))
	sims := make([]*hwsim.Sim, len(specs))
	for i, sp := range specs {
		prog, err := sp.App.Program()
		if err != nil {
			return err
		}
		pl, err := core.Compile(prog, sp.Opts)
		if err != nil {
			return err
		}
		if shells[i], err = nic.New(pl, sp.Shell); err != nil {
			return err
		}
		if err := sp.App.Setup(shells[i].Maps()); err != nil {
			return err
		}
		if sims[i], err = hwsim.New(pl, hwsim.Config{ClockHz: clockHz}); err != nil {
			return err
		}
		if err := sp.App.Setup(sims[i].Maps()); err != nil {
			return err
		}
	}
	err = m.loop(tr, "nic.runload_ns", reps, n, 1, func() error {
		for b := 0; b < batches; b++ {
			for i, sp := range specs {
				r := ring{frames: sub[i]}
				if _, err := shells[i].RunLoad(r.next, len(sub[i]), offered*sp.Share); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	err = m.loop(tr, "hwsim.exec_ns", reps, n, 1, func() error {
		for b := 0; b < batches; b++ {
			for i, sp := range specs {
				r := ring{frames: sub[i]}
				if err := driveCore(sims[i], r.next, len(sub[i]), offered*sp.Share); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("tenant.self_ns", m.get("tenant.serve_ns")-m.get("nic.runload_ns"))
	m.set("nic.self_ns", m.get("nic.runload_ns")-m.get("hwsim.exec_ns"))
	return nil
}

// fleet50Mpps is fleet.Config's default per-device offered rate, which
// the fleet_tenants workload leaves in place.
const fleet50Mpps = 50e6
