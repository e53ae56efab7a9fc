// Package fleet is the cluster control plane of the repository: it runs
// N simulated NIC shells as in-process shards behind a cluster-level
// consistent-hash ring (flows partitioned one level above each device's
// own RSS dispatcher), drives rolling canary live-updates across them,
// and rebalances flows away from devices that are recovering, killed or
// silently corrupted.
//
// The controller is an epoch loop. Each epoch it generates one traffic
// slice, Toeplitz-hashes every flow onto the ring, serves each device's
// partition through nic.Shell.RunLoad, and then applies control
// decisions: verdict verification against a per-device reference
// interpreter, health-driven drains with jittered re-admission, and one
// step of the rollout state machine. Devices serve concurrently, results
// fold in id order and every random decision draws from streams forked off
// one master seed — a whole-fleet chaos run replays byte-identically.
package fleet

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"ehdl/internal/apps"
	"ehdl/internal/conformance"
	"ehdl/internal/core"
	"ehdl/internal/ebpf"
	"ehdl/internal/faults"
	"ehdl/internal/hwsim"
	"ehdl/internal/maps"
	"ehdl/internal/nic"
	"ehdl/internal/obs"
	"ehdl/internal/pktgen"
	"ehdl/internal/rss"
	"ehdl/internal/tenant"
	"ehdl/internal/vm"
)

// Fleet-level metric names.
const (
	metricGenerated   = "fleet.generated_packets"
	metricDelivered   = "fleet.delivered_packets"
	metricLost        = "fleet.lost_packets"
	metricDrains      = "fleet.drains"
	metricReadmits    = "fleet.readmits"
	metricKills       = "fleet.kills"
	metricQuarantines = "fleet.quarantines"
	metricDivergences = "fleet.verdict_divergences"
	metricUpdates     = "fleet.rollout_updates"
	metricReverts     = "fleet.rollout_reverts"
)

// Config parameterises a fleet run.
type Config struct {
	// Devices is the shard count. 0 means 4.
	Devices int
	// App is the workload every device serves. Required.
	App *apps.App
	// shell is the per-device shell template. Its Faults field is
	// overridden by the per-device Chaos fork; Sim.Trace and
	// Sim.Metrics are cleared (the fleet's Trace below observes the
	// control plane, and the tracer is single-writer).
	shell nic.ShellConfig
	// Seed is the master seed: traffic, fault forks, recovery jitter
	// and cool-down jitter all derive from it. 0 means 1.
	Seed int64
	// EpochPackets is the traffic slice per epoch. 0 means 256.
	EpochPackets int
	// OfferedPps is the per-device offered rate. 0 means 50e6.
	OfferedPps float64

	// Verify mirrors every device with a reference interpreter and
	// diffs per-epoch verdict histograms and map state. Requires a
	// time-free app (the mirror pins the clock at zero). Epochs where a
	// device took hardware faults, dropped arrivals or absorbed an
	// overflow burst are skipped — verdict conformance is asserted only
	// where the hardware ran clean; faulted devices are handled by the
	// health machinery instead.
	Verify bool

	// Chaos, when enabled, is forked per device (Injector.Fork
	// semantics) so each shard runs its own deterministic hardware
	// fault campaign.
	Chaos faults.Config
	// KillAt schedules hard mid-epoch device deaths: epoch -> device
	// ids. The device's partition for that epoch is lost (bounded by
	// the partition size) and exactly accounted in Report.KilledLoss.
	KillAt map[int][]int
	// CorruptAt schedules silent map-state corruption: epoch -> device
	// ids. A corrupted device keeps serving; the verification mirror
	// catches the divergence and quarantines it.
	CorruptAt map[int][]int

	// Update, when non-nil, arms a rolling canary update across the
	// fleet.
	Update *UpdateConfig

	// Tenants, when non-empty, runs every device as a multi-tenant
	// tenant.Device instead of a single-pipeline shell: the same spec
	// list is admitted on each shard (priced against the per-device FPGA
	// budget — an admission rejection fails New with the typed
	// tenant.AdmissionError), traffic comes from the tenants' own
	// VLAN-tagged mux, and per-tenant sub-reports fold into the fleet
	// view through Report.Device. App is ignored (each spec carries its
	// own shell template); Verify, Update and CorruptAt are
	// single-pipeline machinery and are rejected in tenant mode.
	Tenants []tenant.Spec
	// TenantBandPct is the per-device admission ceiling, forwarded to
	// tenant.DeviceConfig.UtilisationBandPct. 0 means 70, the tenant
	// package default.
	TenantBandPct float64

	// JournalDir, when non-empty, makes the run crash-consistent: every
	// epoch commits a record to a write-ahead journal in this directory
	// before Run proceeds past it. The journal is the run's only durable
	// file. A journal directory holding a previous run is refused unless
	// Resume is set.
	JournalDir string
	// Resume recovers the run journaled in JournalDir: the config
	// fingerprint is verified, the journaled epochs are re-executed
	// under digest verification (each must reproduce its committed
	// digest), and live execution continues from the journal tail.
	Resume bool

	// Trace receives KindRolloutPhase and KindRebalance events (the
	// Cycle field carries the epoch) plus, with a journal attached, the
	// KindJournalCommit/KindReplayEpoch stream.
	// Optional.
	Trace *obs.Tracer
	// metrics accumulates the fleet.* and durable.* instruments.
	// Optional.
	metrics *obs.Registry
}

// drainRecoveries is the per-epoch recovery count that drains a device
// from the ring: any recovery drains.
const drainRecoveries = 1

// cooldownEpochs is the base cool-down before a drained device is
// re-admitted; a seeded jitter in [0, base) is added so simultaneously
// drained devices don't re-enter in lockstep.
const cooldownEpochs = 2

func (c Config) devices() int {
	if c.Devices <= 0 {
		return 4
	}
	return c.Devices
}

func (c Config) seed() int64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

func (c Config) epochPackets() int {
	if c.EpochPackets <= 0 {
		return 256
	}
	return c.EpochPackets
}

func (c Config) offeredPps() float64 {
	if c.OfferedPps <= 0 {
		return 50e6
	}
	return c.OfferedPps
}

func (c Config) tenantBandPct() float64 {
	if c.TenantBandPct <= 0 {
		return 70
	}
	return c.TenantBandPct
}

// UpdateConfig parameterises the rolling canary update.
type UpdateConfig struct {
	// Prog is the new program. Required.
	Prog *ebpf.Program
	// Setup populates the new program's maps host-side before
	// migration.
	Setup func(*maps.Set) error
	// RolloutRate is the minimum number of epochs between device
	// updates — the update epoch plus at least one soak epoch whose
	// throughput must clear the soak floor before the next device
	// goes. 0 means 2; values below 2 are raised to 2.
	RolloutRate int
	// TolerancePct is the per-device throughput floor for the soak
	// gate, in percent below the pre-update epoch. 0 means 5.
	TolerancePct float64
	// shadowChaos injects a fault campaign into the new engine of the
	// named device's update (device id -> campaign) — the test hook
	// that makes a canary diverge on demand.
	shadowChaos map[int]faults.Config
}

// startEpoch is the first epoch a device may update.
const startEpoch = 1

// canaryPackets is the per-device canary requirement.
const canaryPackets = 8

func (u *UpdateConfig) rolloutRate() int {
	if u.RolloutRate < 2 {
		return 2
	}
	return u.RolloutRate
}

// devState is a device's position in the health state machine.
type devState int

const (
	stateHealthy devState = iota
	// stateCooling: drained from the ring after recoveries or a
	// watchdog trip, waiting out the jittered cool-down.
	stateCooling
	// stateDead: killed by chaos or lost to an unrecoverable error;
	// never re-admitted.
	stateDead
	// stateQuarantined: the verification mirror caught silent state
	// corruption; never re-admitted.
	stateQuarantined
)

var stateNames = [...]string{"healthy", "cooling", "dead", "quarantined"}

func (s devState) String() string { return stateNames[s] }

// device is one fleet shard: a single-pipeline shell (sh) or, in
// tenant mode, a multi-tenant device (td).
type device struct {
	id int
	sh *nic.Shell
	td *tenant.Device
	mi *mirror
	// prog is the program the device currently serves (flips with
	// committed updates and reverts); the mirror rebuilds against it.
	prog *ebpf.Program

	state         devState
	cooldownUntil int
	corrupted     bool
	deathCause    string

	updated  bool
	reverted bool
	// baselineMpps is the device's throughput on its last clean
	// pre-update epoch — the reference for the soak gate. lastMpps
	// and lastMppsEpoch record the most recent served epoch so the soak
	// gate knows it is looking at this epoch's number.
	baselineMpps  float64
	lastMpps      float64
	lastMppsEpoch int

	received uint64
	lost     uint64
	drains   int

	// doomed and serving carry one epoch from runEpoch's launch loop to
	// its ordered pass: a kill decided, or a worker launched, which hands
	// its result back on served (made once, buffered: an unwind strands
	// no worker).
	doomed, serving bool
	served          chan served
}

// served is runDevice's return, as a device's worker hands it back.
type served struct {
	rep nic.Report
	err error
}

// Controller owns the fleet.
type Controller struct {
	cfg     Config
	prog    *ebpf.Program
	devices []*device
	ring    *ring
	hasher  *rss.Hasher
	// next builds the next frame at the end of the epoch arena: the single
	// app's generator, or the tenants' VLAN-tagged mux in tenant mode.
	// frameBound is the longest frame it builds.
	next       func(arena []byte) (grown, pkt []byte)
	frameBound int
	// The epoch's buffers, made by the first partition and rebuilt by
	// every one: the frames in the arena, each arrival's device (-1:
	// unroutable), and per device its arrival count and its batch, a
	// view of slab.
	arena   []byte
	frames  [][]byte
	homes   []int
	slab    [][]byte
	counts  []int
	batches [][][]byte
	workers sync.WaitGroup // the epoch's device goroutines in flight
	// rng draws fleet-level jitter (cool-down spread). Device-level
	// randomness lives in the per-device injector forks. rngDraws
	// counts the draws consumed — the stream position every epoch's
	// journaled state digest covers.
	rng      *rand.Rand
	rngDraws uint64
	epoch    int
	rep      Report
	ran      bool // Run was called: a controller drives one run
	rollout  *rolloutState
	// device folds Report.Device over the epochs; epochReps holds the
	// reports of the epoch being folded.
	device    nic.Timeline
	epochReps []nic.Report

	// dur is the journal attachment (nil without Config.JournalDir);
	// replaying is true while a resumed run re-executes its journaled
	// prefix under digest verification.
	dur       *durState
	replaying bool
	// crashAt arms one named crash site (recovery-gate hook);
	// crashProbe, when non-nil, records every site the run passes.
	crashAt    string
	crashProbe map[string]int
}

// mix is the seed spreader for per-device derived seeds (splitmix
// finalizer, same construction the fault injector forks with).
func mix(v int64) int64 {
	z := uint64(v) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// newController builds the device-less controller both fleet shapes share.
func newController(cfg Config) (*Controller, error) {
	hasher, err := rss.NewHasher(nil)
	if err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:     cfg,
		ring:    newRing(),
		hasher:  hasher,
		rng:     rand.New(rand.NewSource(mix(cfg.seed()))),
		counts:  make([]int, cfg.devices()),
		batches: make([][][]byte, cfg.devices()),
	}
	c.rep.Devices = cfg.devices()
	c.rep.Seed = cfg.seed()
	return c, nil
}

// New builds the fleet: one compiled pipeline shared by every device,
// per-device shells, fault forks and (under Verify) reference mirrors,
// all on one ring.
func New(cfg Config) (*Controller, error) {
	if len(cfg.Tenants) > 0 {
		return newTenantFleet(cfg)
	}
	if cfg.App == nil {
		return nil, fmt.Errorf("fleet: an app is required")
	}
	if cfg.Update != nil && cfg.Update.Prog == nil {
		return nil, fmt.Errorf("fleet: update config without a program")
	}
	prog, err := cfg.App.Program()
	if err != nil {
		return nil, fmt.Errorf("fleet: %s: %w", cfg.App.Name, err)
	}
	c, err := newController(cfg)
	if err != nil {
		return nil, err
	}
	c.prog = prog
	traffic := cfg.App.Traffic
	traffic.Seed = mix(cfg.seed() + 1)
	c.next, c.frameBound = pktgen.NewGenerator(traffic).AppendNext, frameBound(traffic)

	// One design serves every device: a compiled pipeline is read-only,
	// and each shell keeps its own maps, stage registers and fault state.
	pl, err := core.Compile(prog, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("fleet: compile: %w", err)
	}
	n := cfg.devices()
	for i := 0; i < n; i++ {
		shCfg := cfg.shell
		shCfg.Sim.Trace = nil
		shCfg.Sim.Metrics = nil
		if cfg.Chaos.Enabled() {
			shCfg.Faults = cfg.Chaos.Fork(int64(i) + 1)
		}
		if shCfg.Sim.RecoveryJitterSeed == 0 {
			shCfg.Sim.RecoveryJitterSeed = mix(cfg.seed() + 100 + int64(i))
		}
		sh, err := nic.New(pl, shCfg)
		if err != nil {
			return nil, fmt.Errorf("fleet: device %d: %w", i, err)
		}
		if err := cfg.App.Setup(sh.Maps()); err != nil {
			return nil, fmt.Errorf("fleet: device %d setup: %w", i, err)
		}
		d := &device{id: i, sh: sh, prog: prog, served: make(chan served, 1)}
		if cfg.Verify {
			mi, err := newMirror(prog, cfg.App.SetupHost)
			if err != nil {
				return nil, fmt.Errorf("fleet: device %d mirror: %w", i, err)
			}
			d.mi = mi
		}
		c.devices = append(c.devices, d)
		c.ring.Add(i)
	}
	if cfg.Update != nil {
		c.rollout = newRollout(cfg.Update, n)
	}
	return c, nil
}

// newTenantFleet builds the multi-tenant fleet: every shard is a
// tenant.Device admitting the same spec list against its own FPGA
// budget, fed from one VLAN-tagged tenant traffic mux through the same
// consistent-hash ring (tagged frames hash by their inner 5-tuple).
func newTenantFleet(cfg Config) (*Controller, error) {
	switch {
	case cfg.Verify:
		return nil, fmt.Errorf("fleet: tenant mode has no reference mirror; Verify must be off")
	case cfg.Update != nil:
		return nil, fmt.Errorf("fleet: tenant fleets take no rollout; fleet-wide updates are single-pipeline")
	case len(cfg.CorruptAt) > 0:
		return nil, fmt.Errorf("fleet: CorruptAt targets a single-pipeline map set; unsupported in tenant mode")
	}
	c, err := newController(cfg)
	if err != nil {
		return nil, err
	}
	c.next = tenant.NewTrafficMux(cfg.Tenants, mix(cfg.seed()+1)).AppendNext
	for _, sp := range cfg.Tenants {
		if sp.App != nil {
			c.frameBound = max(c.frameBound, frameBound(sp.App.Traffic)+4) // a VLAN tag
		}
	}

	specs, err := compileSpecs(cfg.Tenants)
	if err != nil {
		return nil, err
	}
	n := cfg.devices()
	for i := 0; i < n; i++ {
		dcfg := tenant.DeviceConfig{
			UtilisationBandPct: cfg.tenantBandPct(),
			EpochPackets:       cfg.epochPackets(),
			Seed:               mix(cfg.seed() + 200 + int64(i)),
		}
		if cfg.Chaos.Enabled() {
			dcfg.Chaos = cfg.Chaos.Fork(int64(i) + 1)
		}
		td := tenant.NewDevice(dcfg)
		for _, sp := range specs {
			if _, err := td.AdmitTenant(sp); err != nil {
				return nil, fmt.Errorf("fleet: device %d: %w", i, err)
			}
		}
		c.devices = append(c.devices, &device{id: i, td: td, served: make(chan served, 1)})
		c.ring.Add(i)
	}
	return c, nil
}

// frameBound is the longest frame a traffic config builds: PacketLen, or
// 64 bytes — pktgen's default, with room for the headers it raises a
// shorter length to.
func frameBound(traffic pktgen.GeneratorConfig) int { return max(traffic.PacketLen, 64) }

// compileSpecs returns the spec list with every missing design
// compiled, once per spec for all devices.
func compileSpecs(specs []tenant.Spec) ([]tenant.Spec, error) {
	out := slices.Clone(specs)
	for i := range out {
		sp := &out[i]
		if sp.Design != nil || sp.App == nil {
			continue // AdmitTenant rejects a spec without an app
		}
		prog, err := sp.App.Program()
		if err != nil {
			return nil, fmt.Errorf("fleet: tenant %s: %w", sp.Name, err)
		}
		if sp.Design, err = core.Compile(prog, sp.Opts); err != nil {
			return nil, fmt.Errorf("fleet: tenant %s: compile: %w", sp.Name, err)
		}
	}
	return out, nil
}

// count bumps a fleet metric (nil-registry safe).
func (c *Controller) count(name string, n uint64) {
	if c.cfg.metrics != nil && n > 0 {
		c.cfg.metrics.Counter(name).Add(n)
	}
}

// event emits one fleet trace event with the epoch as the cycle stamp.
// Rollout and rebalance transitions double as named crash sites: they
// are exactly the mid-epoch state mutations the recovery gate kills the
// controller inside.
func (c *Controller) event(kind obs.Kind, aux, aux2 uint64) {
	switch kind {
	case obs.KindRolloutPhase:
		c.crashSite("rollout:" + rolloutPhase(aux).String())
	case obs.KindRebalance:
		if aux2 == 1 {
			c.crashSite(fmt.Sprintf("rebalance:remove:dev%d", aux))
		} else {
			c.crashSite(fmt.Sprintf("rebalance:readmit:dev%d", aux))
		}
	}
	c.cfg.Trace.Emit(obs.Event{
		Cycle: uint64(c.epoch), Kind: kind, Seq: obs.NoSeq,
		Stage: obs.NoStage, Map: obs.NoMap, Aux: aux, Aux2: aux2,
	})
}

// Run drives the fleet for `epochs` epochs and returns the aggregate
// report. Device failures are absorbed into the report; the returned
// error covers only the controller's own invariants. With a journal
// attached (Config.JournalDir) each epoch's record is committed before
// the loop proceeds past it, and an armed crash site unwinds through
// here exactly like a process kill — journal left as-is, torn tail and
// all, for the next Resume. A controller runs once: a second call is
// refused and leaves the report as the first left it.
func (c *Controller) Run(epochs int) (rep Report, err error) {
	if c.ran {
		return c.rep, fmt.Errorf("fleet: Run called twice: a controller drives one run")
	}
	c.ran = true
	defer func() {
		if r := recover(); r != nil {
			sc, ok := r.(simCrash)
			if !ok {
				panic(r)
			}
			rep = c.rep
			err = fmt.Errorf("%w at site %q", errSimulatedCrash, string(sc))
		}
	}()
	if err := c.durOpen(epochs); err != nil {
		return c.rep, err
	}
	if c.dur != nil {
		defer c.dur.j.Close()
	}
	for e := 0; e < epochs; e++ {
		c.epoch = e
		c.runEpoch()
		if err := c.durEpoch(e); err != nil {
			return c.rep, err
		}
	}
	c.finalize()
	if err := c.durComplete(); err != nil {
		return c.rep, err
	}
	return c.rep, nil
}

// runEpoch executes one epoch in three steps. Partition: re-admissions,
// rollout scheduling and the ring split. Serve: one goroutine per device
// with a partition — NICs are separate hardware, runDevice touches only
// its own shard. Fold: one pass in id order that, at each device's slot,
// executes its scheduled kill or awaits and folds its result, so every
// controller mutation, RNG draw and event lands where a one-by-one walk
// put it. The deferred Wait joins the workers on every way out, an armed
// crash site's unwind included.
func (c *Controller) runEpoch() {
	defer c.workers.Wait()
	c.rep.Epochs = c.epoch + 1
	c.readmitCooled()
	if c.rollout != nil {
		c.rollout.schedule(c)
	}
	batches := c.partition()
	for _, d := range c.devices {
		batch := batches[d.id]
		if d.doomed = c.chaosStrike(d); d.doomed || len(batch) == 0 || (d.state != stateHealthy && d.state != stateCooling) {
			continue
		}
		d.serving = true
		c.workers.Add(1)
		go func() {
			defer c.workers.Done()
			rep, err := c.runDevice(d, batch)
			d.served <- served{rep, err}
		}()
	}
	for _, d := range c.devices {
		switch {
		case d.doomed:
			c.kill(d, "chaos kill", uint64(len(batches[d.id])))
		case d.serving:
			res := <-d.served
			d.serving = false
			c.fold(d, batches[d.id], res.rep, res.err)
		}
	}
	c.device.Step(c.epochReps...)
	c.epochReps = c.epochReps[:0]
	c.rep.Device = c.device.Report()
	if c.rollout != nil {
		c.rollout.evaluate(c)
	}
}

// chaosStrike takes this epoch's scheduled kill/corrupt decisions for
// one device before launch (both depend only on the schedule and its own
// state). A corruption is applied here; a kill is only decided — the
// doomed device never runs, and the kill at its slot of the ordered pass
// loses exactly its partition, the bounded loss booked as KilledLoss.
func (c *Controller) chaosStrike(d *device) (doomed bool) {
	if slices.Contains(c.cfg.KillAt[c.epoch], d.id) && d.state != stateDead {
		return true
	}
	if slices.Contains(c.cfg.CorruptAt[c.epoch], d.id) && d.state == stateHealthy && !d.corrupted && corruptMaps(d.sh.Maps()) {
		d.corrupted = true
		c.rep.CorruptionsInjected++
	}
	return false
}

// kill marks a device dead, removes it from the ring and charges the
// partition it was about to serve to KilledLoss.
func (c *Controller) kill(d *device, cause string, loss uint64) {
	d.state = stateDead
	d.deathCause = cause
	c.ring.Remove(d.id)
	c.rep.Kills++
	c.rep.KilledLoss += loss
	c.count(metricKills, 1)
	c.event(obs.KindRebalance, uint64(d.id), 1)
}

// quarantine permanently drains a device whose state diverged from the
// reference — the silent-corruption path.
func (c *Controller) quarantine(d *device) {
	d.state = stateQuarantined
	d.deathCause = "verdict divergence (quarantined)"
	c.ring.Remove(d.id)
	c.rep.Quarantines++
	c.count(metricQuarantines, 1)
	c.event(obs.KindRebalance, uint64(d.id), 1)
}

// drain removes a recovering device from the ring for a jittered
// cool-down. RunLoad drains the pipeline before returning, so a drain
// decided at the epoch boundary strands zero in-flight packets — the
// only loss already sits in the queue-drop books.
func (c *Controller) drain(d *device) {
	base := cooldownEpochs
	d.state = stateCooling
	d.cooldownUntil = c.epoch + 1 + base + c.rng.Intn(base)
	c.rngDraws++
	d.drains++
	c.ring.Remove(d.id)
	c.rep.Drains++
	c.count(metricDrains, 1)
	c.event(obs.KindRebalance, uint64(d.id), 1)
}

// readmitCooled returns cooled-down devices to the ring.
func (c *Controller) readmitCooled() {
	for _, d := range c.devices {
		if d.state == stateCooling && c.epoch >= d.cooldownUntil {
			d.state = stateHealthy
			c.ring.Add(d.id)
			c.rep.Readmits++
			c.count(metricReadmits, 1)
			c.event(obs.KindRebalance, uint64(d.id), 0)
		}
	}
}

// partition hashes one epoch's traffic slice onto the ring, building over
// last epoch's frames and batches (its workers are joined). Flows with no
// live home (empty ring) are charged to UnroutableLoss. The buffers are
// sized once, from EpochPackets and the frame bound: each device's batch
// is its arrivals in order, carved from one slab of an entry per arrival
// once every arrival's device is known.
func (c *Controller) partition() [][][]byte {
	n := c.cfg.epochPackets()
	if c.frames == nil {
		c.arena = make([]byte, 0, n*c.frameBound)
		c.frames, c.homes, c.slab = make([][]byte, n), make([]int, n), make([][]byte, n)
	}
	c.arena = c.arena[:0]
	clear(c.counts)
	for i := range c.frames {
		c.arena, c.frames[i] = c.next(c.arena)
		hash, ok := c.hasher.HashPacket(c.frames[i])
		if !ok {
			hash = 0
		}
		dev, live := c.ring.Lookup(hash)
		if !live {
			c.rep.UnroutableLoss++
			dev = -1
		} else {
			c.counts[dev]++
		}
		c.homes[i] = dev
	}
	off := 0
	for dev, k := range c.counts {
		c.batches[dev] = c.slab[off : off : off+k]
		off += k
	}
	for i, dev := range c.homes {
		if dev >= 0 {
			c.batches[dev] = append(c.batches[dev], c.frames[i])
		}
	}
	c.rep.Generated += uint64(n)
	c.count(metricGenerated, uint64(n))
	return c.batches
}

// runDevice drives one partition through its device on the device's own
// goroutine: a pure function of the shard's shells, maps and injector
// fork that must not touch the controller.
func (c *Controller) runDevice(d *device, batch [][]byte) (nic.Report, error) {
	if d.td != nil {
		// Tenant mode: tenant-local failures are contained inside Serve
		// and come back as TenantDownLoss, not as an error.
		return d.td.Serve(batch, c.cfg.offeredPps())
	}
	// Overflow-burst faults make the shell pull more than the partition
	// holds; extras recycle it (modulo). The shell only reads a pulled
	// frame, so the mirror's batch stays pristine without a copy.
	i := 0
	next := func() []byte {
		pkt := batch[i%len(batch)]
		i++
		return pkt
	}
	return d.sh.RunLoad(next, len(batch), c.cfg.offeredPps())
}

// fold books one served partition on the controller: the accounting,
// the mirror verification and the health rule. Ordered pass only.
func (c *Controller) fold(d *device, batch [][]byte, rep nic.Report, err error) {
	count := len(batch)
	if err != nil {
		// Unrecoverable device death mid-serve (recovery budget
		// exhausted): retired packets stay delivered, the rest of the
		// partition is the bounded in-flight loss.
		delivered := rep.Received
		if delivered > uint64(count) {
			c.rep.ExtraInjected += delivered - uint64(count)
		} else {
			c.rep.MidServeLoss += uint64(count) - delivered
		}
		c.rep.Delivered += delivered
		c.epochReps = append(c.epochReps, rep)
		d.received += delivered
		c.kill(d, err.Error(), 0)
		return
	}
	c.rep.Delivered += rep.Received
	c.rep.QueueLost += rep.Lost
	c.rep.ThrottledLoss += rep.Throttled
	c.rep.QuarantinedLoss += rep.Quarantined
	c.rep.TenantDownLoss += rep.TenantDownLoss
	c.rep.ExtraInjected += rep.Sent - uint64(count)
	c.epochReps = append(c.epochReps, rep)
	c.count(metricDelivered, rep.Received)
	c.count(metricLost, rep.Lost)
	d.received += rep.Received
	d.lost += rep.Lost

	updateEpoch := c.rollout != nil && c.rollout.pending == d.id
	if updateEpoch {
		c.rollout.lastRep = rep
	}

	switch {
	case updateEpoch:
		// The live-update machinery ran its own canary diff this epoch;
		// the mirror is stale by one batch either way (commit or
		// rollback), so resync it from the device's host maps.
		if rep.UpdatesCompleted > 0 {
			d.prog = c.rollout.servingProg(c, d)
		}
		c.resyncMirror(d)
	case c.verifiable(d, rep, count):
		c.verify(d, batch, rep)
	default:
		// The epoch took hardware faults, damage or drops, so it is not
		// comparable to the fault-free reference — and a silent map
		// upset from it would otherwise poison every later clean diff.
		// Re-base the mirror on the device's current state: conformance
		// is asserted over clean windows, faulted windows are owned by
		// the protection/recovery machinery.
		c.resyncMirror(d)
	}

	d.lastMpps = rep.AchievedMpps
	d.lastMppsEpoch = c.epoch
	if d.state == stateHealthy && !d.updated && !updateEpoch {
		// Update epochs carry migration and cutover overhead; only
		// clean epochs set the soak-gate baseline.
		d.baselineMpps = rep.AchievedMpps
	}
	if rep.Recoveries >= drainRecoveries || rep.WatchdogTrips > 0 {
		if d.state == stateHealthy {
			c.drain(d)
		}
	}
}

// resyncMirror re-bases a device's mirror on its serving program and
// current host map state (no-op without a mirror; a rebuild failure
// disables verification for the device rather than mis-diffing it).
func (c *Controller) resyncMirror(d *device) {
	if d.mi == nil {
		return
	}
	if err := d.mi.rebuild(d.prog, d.sh.Maps()); err != nil {
		d.mi = nil
	}
}

// verifiable gates the mirror diff: only an epoch the hardware served
// clean — no injected faults, no damaged frames, no recovery aborts, no
// queue drops, no overflow extras — is comparable to the fault-free
// reference.
func (c *Controller) verifiable(d *device, rep nic.Report, count int) bool {
	return d.mi != nil &&
		rep.FaultsInjected == 0 && rep.MalformedSent == 0 &&
		rep.RecoveryAborted == 0 && rep.Lost == 0 &&
		rep.Sent == uint64(count)
}

// verify replays the batch on the device's reference mirror and diffs
// the verdict histogram and the full map state. A divergence on a
// chaos-corrupted device is the detection working — the device is
// quarantined; on any other device it is counted, and the chaos gate
// requires that count to be zero.
func (c *Controller) verify(d *device, batch [][]byte, rep nic.Report) {
	actions, err := d.mi.run(batch)
	diverged := err != nil || !sameVerdicts(actions, rep.Actions)
	if !diverged {
		if err := conformance.CompareMaps(d.mi.env.Maps, d.sh.Maps()); err != nil {
			diverged = true
		}
	}
	c.rep.VerifiedEpochs++
	if !diverged {
		return
	}
	if d.corrupted {
		c.quarantine(d)
		return
	}
	c.rep.VerdictDivergences++
	c.count(metricDivergences, 1)
}

// finalize computes the end-of-run summary.
func (c *Controller) finalize() {
	for _, d := range c.devices {
		st := DeviceStatus{
			ID: d.id, State: d.state.String(), Updated: d.updated,
			Reverted: d.reverted, Drains: d.drains,
			Received: d.received, QueueLost: d.lost,
			DeathCause: d.deathCause,
		}
		if d.td != nil {
			for _, tn := range d.td.Tenants() {
				if tn.Dead() {
					st.DeadTenants++
				}
			}
		}
		c.rep.PerDevice = append(c.rep.PerDevice, st)
		if d.state == stateDead || d.state == stateQuarantined {
			c.rep.DeadDevices++
		}
	}
	if c.rollout != nil {
		c.rep.Rollout = c.rollout.outcome()
		c.rep.RolloutHalt = c.rollout.haltReason
	}
}

// corruptMaps flips the first byte of the first entry of the first
// non-empty map — the silent single-device corruption the differential
// mirror is there to catch.
func corruptMaps(set *maps.Set) bool {
	for id := 0; id < set.Len(); id++ {
		m, ok := set.ByID(id)
		if !ok {
			continue
		}
		var key, val []byte
		m.Iterate(func(k, v []byte) bool {
			key = append([]byte(nil), k...)
			val = append([]byte(nil), v...)
			return false
		})
		if key == nil {
			continue
		}
		val[0] ^= 0xff
		if err := m.Update(key, val, maps.UpdateAny); err != nil {
			continue
		}
		return true
	}
	return false
}

// mirror is a device's reference interpreter: the same program over the
// same flow partition, clock pinned at zero, diffed each clean epoch.
type mirror struct {
	prog *ebpf.Program
	env  *vm.Env
	m    *vm.Machine
}

func newMirror(prog *ebpf.Program, setup func(*maps.Set) error) (*mirror, error) {
	env, err := vm.NewEnv(prog)
	if err != nil {
		return nil, err
	}
	env.Now = func() uint64 { return 0 }
	if setup != nil {
		if err := setup(env.Maps); err != nil {
			return nil, err
		}
	}
	m, err := vm.New(prog, env)
	if err != nil {
		return nil, err
	}
	return &mirror{prog: prog, env: env, m: m}, nil
}

// run executes one batch and returns the verdict histogram.
func (mi *mirror) run(batch [][]byte) (hwsim.Verdicts, error) {
	var actions hwsim.Verdicts
	for _, data := range batch {
		res, err := mi.m.Run(vm.NewPacket(append([]byte(nil), data...)))
		if err != nil {
			return hwsim.Verdicts{}, err
		}
		actions.Add(res.Action, 1)
	}
	return actions, nil
}

// sameVerdicts reports whether two histograms hold the same counts.
func sameVerdicts(a, b hwsim.Verdicts) bool {
	same := true
	a.Each(func(act ebpf.XDPAction, n uint64) { same = same && b.Count(act) == n })
	b.Each(func(act ebpf.XDPAction, n uint64) { same = same && a.Count(act) == n })
	return same
}

// rebuild re-bases the mirror on prog with map state copied from the
// device — used after an update epoch, where the live-update canary
// owned the diff and the mirror sat out one batch.
func (mi *mirror) rebuild(prog *ebpf.Program, from *maps.Set) error {
	fresh, err := newMirror(prog, nil)
	if err != nil {
		return err
	}
	if err := fresh.env.Maps.Restore(from.Snapshot()); err != nil {
		return err
	}
	*mi = *fresh
	return nil
}
