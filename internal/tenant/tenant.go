// Package tenant is the multi-tenancy layer of the simulated NIC: one
// device carries M tenant pipelines behind a VLAN/5-tuple classifier,
// with robustness as the organizing principle.
//
//   - Admission is budget-gated: AdmitTenant prices the candidate
//     design with the hdl estimators (pipeline and protection
//     hardware) and rejects, with a typed *AdmissionError,
//     any tenant that would push the device past a configurable
//     LUT/FF/BRAM utilisation band. What is admitted provably fits.
//   - Isolation is by construction: every tenant gets its own shell
//     around its (read-only) compiled pipeline, its own map namespace,
//     its own forked fault-injection streams and its own
//     recovery/backoff state. There is no shared
//     mutable state between tenants to corrupt, so one tenant's SEUs,
//     flush storms or overflow bursts cannot perturb another tenant's
//     verdicts, counters or map contents (the noisy-neighbor chaos gate
//     asserts bit-identity against a solo run).
//   - Overload is shed locally: per-tenant token buckets police
//     ingress, so a tenant exceeding its share loses its own frames —
//     counted in its ledger — never a neighbour's.
//   - Failure is contained: a tenant whose pipeline dies unrecoverably
//     takes down only its own traffic (exactly accounted as
//     TenantDownLoss); the device keeps serving everyone else.
package tenant

import (
	"fmt"

	"ehdl/internal/apps"
	"ehdl/internal/core"
	"ehdl/internal/faults"
	"ehdl/internal/hdl"
	"ehdl/internal/nic"
	"ehdl/internal/obs"
)

// Tenant-level metric names registered when DeviceConfig.Metrics is set.
const (
	metricAdmitted    = "tenant.admitted"
	metricRejected    = "tenant.rejected"
	metricSteered     = "tenant.steered_frames"
	metricThrottled   = "tenant.throttled_frames"
	metricQuarantined = "tenant.quarantined_frames"
	metricDelivered   = "tenant.delivered_frames"
	metricLost        = "tenant.lost_frames"
)

// quarantineBucket is the Aux value of a KindQueueSteer event for a
// frame steered to the device quarantine bucket (no owning tenant, no
// default tenant configured).
const quarantineBucket = ^uint64(0)

// Spec describes one candidate tenant.
type Spec struct {
	// Name identifies the tenant in reports and errors. Required,
	// unique per device.
	Name string
	// App is the tenant's program and operating context. Required.
	App *apps.App
	// Opts is the compiler configuration for the tenant's pipeline.
	Opts core.Options
	// Design, when set, is App's program compiled under Opts, and
	// AdmitTenant serves it instead of compiling its own. A compiled
	// pipeline is read-only, so devices admitting the same spec share
	// it.
	Design *core.Pipeline
	// Share is the tenant's fraction of the device's ingress budget in
	// (0, 1]; the shares of all admitted tenants may not exceed 1.
	Share float64
	// VLAN steers 802.1Q-tagged frames with this VID (1-4094) to the
	// tenant; the tag is stripped before the frame enters the tenant's
	// pipeline. 0 disables VLAN steering for this tenant.
	VLAN uint16
	// SrcNet/SrcMask classify untagged IPv4 frames by source address
	// (src & SrcMask == SrcNet). SrcMask 0 disables the rule.
	SrcNet  uint32
	SrcMask uint32
	// Default marks the tenant as the catch-all for unclassifiable
	// frames. At most one tenant per device may be the default; without
	// one, unclassifiable frames land in the device quarantine bucket
	// (counted and traced, never dropped silently).
	Default bool
	// Shell is the tenant's shell template: hazard policy, protection
	// level, recovery budget and — for per-tenant chaos campaigns — its
	// own fault configuration. Sim.Trace and Sim.Metrics are cleared
	// (the device's Trace/Metrics observe the control plane; the tracer
	// is single-writer).
	Shell nic.ShellConfig
}

// DeviceConfig parameterises a multi-tenant device.
type DeviceConfig struct {
	// UtilisationBandPct is the admission ceiling on the dominant
	// utilisation fraction (LUT/FF/BRAM) including the Corundum shell.
	// 0 means 70.
	UtilisationBandPct float64
	// EpochPackets is the arrivals per policing epoch when RunLoad
	// chunks a stream. 0 means 256.
	EpochPackets int
	// EpochBudget is the device's ingress-budget in frames per epoch,
	// split across tenants by Share. 0 means EpochPackets.
	EpochBudget int
	// Seed derives every per-tenant stream (fault forks, recovery
	// jitter) that a Spec does not pin itself. 0 means 1.
	Seed int64
	// Chaos, when enabled, is forked per tenant (Injector.Fork
	// semantics, tagged by VLAN so a tenant's streams are stable across
	// device compositions) for tenants whose Spec carries no campaign
	// of its own.
	Chaos faults.Config
	// NoIsolation is the ablation switch: tenants share one fault
	// stream and one first-come-first-served ingress budget instead of
	// forked streams and per-tenant buckets. Exists to demonstrate in
	// the EXPERIMENTS ablation what the isolation machinery buys;
	// never use it for a real run.
	NoIsolation bool
	// trace receives KindTenantAdmit/Reject/Throttle and quarantine
	// KindQueueSteer events. metrics accumulates the tenant.*
	// instruments. Both optional; only this package's tests set them.
	trace   *obs.Tracer
	metrics *obs.Registry
}

// fpga is the part the admission gate budgets against: the Alveo U50
// of the paper's testbed.
var fpga = hdl.AlveoU50()

func (c DeviceConfig) bandPct() float64 {
	if c.UtilisationBandPct <= 0 {
		return 70
	}
	return c.UtilisationBandPct
}

func (c DeviceConfig) epochPackets() int {
	if c.EpochPackets <= 0 {
		return 256
	}
	return c.EpochPackets
}

func (c DeviceConfig) epochBudget() int {
	if c.EpochBudget <= 0 {
		return c.epochPackets()
	}
	return c.EpochBudget
}

func (c DeviceConfig) seed() int64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

// AdmissionError is the typed rejection of the budget admission gate:
// the candidate design would push the device past its utilisation band.
type AdmissionError struct {
	// tenant is the rejected candidate.
	tenant string
	// need is the candidate's priced resource vector; used is what the
	// device (shell plus admitted tenants) already consumes.
	need, used hdl.Resources
	// utilPct is the dominant utilisation the admission would reach;
	// bandPct is the configured ceiling it exceeds.
	utilPct, bandPct float64
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf(
		"tenant: admitting %q would reach %.1f%% device utilisation (band %.1f%%): "+
			"need {LUT %d FF %d BRAM %d}, used {LUT %d FF %d BRAM %d}",
		e.tenant, e.utilPct, e.bandPct,
		e.need.LUTs, e.need.FFs, e.need.BRAM36,
		e.used.LUTs, e.used.FFs, e.used.BRAM36)
}

// Tenant is one admitted tenant: its shell, its priced estimate and its
// policing/containment state.
type Tenant struct {
	// id is the admission index, the serving order within an epoch.
	id int
	// Spec is the admitted specification.
	Spec Spec
	// Est is the hdl estimate the admission gate charged for the
	// tenant (pipeline + protection).
	Est hdl.Resources

	sh *nic.Shell

	// bucket is the token-bucket fill in frames; admitted is this
	// epoch's grant from it.
	bucket   float64
	admitted int

	dead       bool
	deathCause string
}

// Dead reports whether the tenant's pipeline died unrecoverably;
// DeathCause carries the terminal error.
func (t *Tenant) Dead() bool         { return t.dead }
func (t *Tenant) DeathCause() string { return t.deathCause }

// Device is one multi-tenant NIC.
type Device struct {
	cfg DeviceConfig
	// used is the consumed resource vector the admission gate budgets
	// against; it starts at the Corundum shell cost.
	used hdl.Resources

	tenants []*Tenant
	byVLAN  map[uint16]*Tenant
	byName  map[string]*Tenant
	def     *Tenant

	// shared is the NoIsolation ablation's single fault stream, handed
	// to every tenant shell (nil under real isolation).
	shared *faults.Injector

	epoch    int
	shareSum float64

	// The epoch's buffers, reused by every Serve: strip is the arena
	// classify copies untagged frames into and sub the per-tenant
	// sub-batches over it, both sized by reserve; rows holds the
	// report's tenant rows, one per admitted tenant.
	strip []byte
	sub   [][][]byte
	rows  []nic.TenantSlice
}

// NewDevice builds an empty multi-tenant device; AdmitTenant populates
// it.
func NewDevice(cfg DeviceConfig) *Device {
	d := &Device{
		cfg:    cfg,
		used:   hdl.CorundumShell(),
		byVLAN: map[uint16]*Tenant{},
		byName: map[string]*Tenant{},
	}
	if cfg.NoIsolation && cfg.Chaos.Enabled() {
		d.shared = faults.New(cfg.Chaos)
	}
	return d
}

// mix is the seed spreader for per-tenant derived seeds (splitmix
// finalizer, the construction the fault injector forks with).
func mix(v int64) int64 {
	z := uint64(v) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// streamTag is the fork tag of a tenant's derived streams. Tagging by
// VLAN (when set) makes a tenant's fault and jitter streams a function
// of its own identity, not of which neighbours were admitted before it
// — the property the noisy-neighbor gate's solo-run comparison needs.
func streamTag(sp Spec, id int) int64 {
	if sp.VLAN != 0 {
		return int64(sp.VLAN)
	}
	return int64(4096 + id)
}

// AdmitTenant prices the candidate design — sp.Design, or App compiled
// under Opts when the spec carries none — and either installs it (its
// own shell, map namespace, fault streams and recovery state) or
// rejects it. Budget rejections are a typed *AdmissionError; malformed
// specifications fail with ordinary errors.
func (d *Device) AdmitTenant(sp Spec) (*Tenant, error) {
	if sp.Name == "" {
		return nil, fmt.Errorf("tenant: a name is required")
	}
	if _, dup := d.byName[sp.Name]; dup {
		return nil, fmt.Errorf("tenant: duplicate name %q", sp.Name)
	}
	if sp.App == nil {
		return nil, fmt.Errorf("tenant: %s: an app is required", sp.Name)
	}
	if sp.Share <= 0 || sp.Share > 1 {
		return nil, fmt.Errorf("tenant: %s: share %.3f outside (0, 1]", sp.Name, sp.Share)
	}
	if d.shareSum+sp.Share > 1+1e-9 {
		return nil, fmt.Errorf("tenant: %s: shares would sum to %.3f > 1",
			sp.Name, d.shareSum+sp.Share)
	}
	if sp.VLAN >= 4095 {
		return nil, fmt.Errorf("tenant: %s: VLAN %d outside 1-4094", sp.Name, sp.VLAN)
	}
	if sp.VLAN != 0 {
		if _, dup := d.byVLAN[sp.VLAN]; dup {
			return nil, fmt.Errorf("tenant: %s: VLAN %d already claimed", sp.Name, sp.VLAN)
		}
	}
	if sp.Default && d.def != nil {
		return nil, fmt.Errorf("tenant: %s: device already has default tenant %q",
			sp.Name, d.def.Spec.Name)
	}

	pl := sp.Design
	if pl == nil {
		prog, err := sp.App.Program()
		if err != nil {
			return nil, fmt.Errorf("tenant: %s: %w", sp.Name, err)
		}
		if pl, err = core.Compile(prog, sp.Opts); err != nil {
			return nil, fmt.Errorf("tenant: %s: compile: %w", sp.Name, err)
		}
	}

	// Price the design: the pipeline (replicated when the tenant runs
	// multi-queue) and its protection hardware.
	est := hdl.EstimatePipeline(pl)
	if sp.Shell.Queues > 1 {
		est = hdl.EstimateReplicated(pl, sp.Shell.Queues)
	}
	est = est.Add(hdl.EstimateProtection(pl, sp.Shell.Sim.Protection))

	util := d.used.Add(est).PercentOf(fpga).Max()
	if util > d.cfg.bandPct() {
		d.count(metricRejected, 1)
		d.event(obs.KindTenantReject, uint64(util*10), uint64(d.cfg.bandPct()*10))
		return nil, &AdmissionError{
			tenant: sp.Name, need: est, used: d.used,
			utilPct: util, bandPct: d.cfg.bandPct(),
		}
	}

	id := len(d.tenants)
	tag := streamTag(sp, id)
	shCfg := sp.Shell
	shCfg.Sim.Trace = nil
	shCfg.Sim.Metrics = nil
	if d.cfg.NoIsolation {
		// Ablation: every tenant rolls on the same stream, so one
		// tenant's fault campaign shifts its neighbours' fault sites.
		shCfg.Faults = faults.Config{}
		shCfg.Sim.Faults = d.shared
	} else if !shCfg.Faults.Enabled() && d.cfg.Chaos.Enabled() {
		shCfg.Faults = d.cfg.Chaos.Fork(tag)
	}
	if shCfg.Sim.RecoveryJitterSeed == 0 {
		shCfg.Sim.RecoveryJitterSeed = mix(d.cfg.seed() + 1000 + tag)
	}
	sh, err := nic.New(pl, shCfg)
	if err != nil {
		return nil, fmt.Errorf("tenant: %s: %w", sp.Name, err)
	}
	if err := sp.App.Setup(sh.Maps()); err != nil {
		return nil, fmt.Errorf("tenant: %s: setup: %w", sp.Name, err)
	}

	t := &Tenant{id: id, Spec: sp, Est: est, sh: sh}
	t.bucket = float64(d.bucketDepth(sp))
	d.tenants = append(d.tenants, t)
	d.rows = append(d.rows, nic.TenantSlice{})
	d.byName[sp.Name] = t
	if sp.VLAN != 0 {
		d.byVLAN[sp.VLAN] = t
	}
	if sp.Default {
		d.def = t
	}
	d.used = d.used.Add(est)
	d.shareSum += sp.Share
	d.count(metricAdmitted, 1)
	d.event(obs.KindTenantAdmit, uint64(id), uint64(d.Utilisation()*10))
	return t, nil
}

// refill is a tenant's per-epoch token grant in frames.
func (d *Device) refill(sp Spec) float64 {
	return sp.Share * float64(d.cfg.epochBudget())
}

// bucketDepth caps a tenant's bucket at twice the per-epoch refill, so
// an idle tenant banks one epoch of burst headroom but can never starve
// its neighbours later.
func (d *Device) bucketDepth(sp Spec) int {
	return max(1, int(2*d.refill(sp)))
}

// Tenants returns the admitted tenants in serving order.
func (d *Device) Tenants() []*Tenant { return d.tenants }

// Used returns the consumed resource vector (shell plus admitted
// tenants); Utilisation is its dominant device fraction in percent —
// by the admission invariant always within the configured band.
func (d *Device) Used() hdl.Resources { return d.used }

func (d *Device) Utilisation() float64 {
	return d.used.PercentOf(fpga).Max()
}

// count bumps a tenant metric (nil-registry safe).
func (d *Device) count(name string, n uint64) {
	if d.cfg.metrics != nil && n > 0 {
		d.cfg.metrics.Counter(name).Add(n)
	}
}

// event emits one tenant trace event with the epoch as the cycle stamp.
func (d *Device) event(kind obs.Kind, aux, aux2 uint64) {
	d.cfg.trace.Emit(obs.Event{
		Cycle: uint64(d.epoch), Kind: kind, Seq: obs.NoSeq,
		Stage: obs.NoStage, Map: obs.NoMap, Aux: aux, Aux2: aux2,
	})
}
