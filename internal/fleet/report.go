package fleet

import "ehdl/internal/nic"

// Report is the cluster-level outcome of a fleet run. Loss is split by
// cause and exactly accounted: every generated packet lands in exactly
// one of Delivered, QueueLost, KilledLoss, MidServeLoss or
// UnroutableLoss, with chaos-injected overflow extras carried separately
// in ExtraInjected — Accounted() states the identity.
type Report struct {
	// Epochs and Devices describe the run shape; Seed makes the report
	// self-describing for replay.
	Epochs  int   `json:"epochs"`
	Devices int   `json:"devices"`
	Seed    int64 `json:"seed"`

	// Generated counts fleet-generated packets; ExtraInjected counts
	// chaos overflow-burst frames injected on top (recycled partition
	// packets, per-device).
	Generated     uint64 `json:"generated"`
	ExtraInjected uint64 `json:"extra_injected"`
	// Delivered counts packets retired by a device pipeline (including
	// forced-drop and aborted verdicts — they completed). QueueLost is
	// ingress back-pressure loss on serving devices. KilledLoss is
	// whole partitions lost to mid-epoch device kills. MidServeLoss is
	// the unserved remainder of a partition whose device died
	// unrecoverably mid-epoch. UnroutableLoss counts packets generated
	// while the ring had no live member.
	Delivered      uint64 `json:"delivered"`
	QueueLost      uint64 `json:"queue_lost"`
	KilledLoss     uint64 `json:"killed_loss"`
	MidServeLoss   uint64 `json:"mid_serve_loss"`
	UnroutableLoss uint64 `json:"unroutable_loss"`

	// Tenant-mode ledger lines (zero on single-pipeline fleets):
	// ThrottledLoss is overload shed by per-tenant token buckets,
	// QuarantinedLoss counts frames no tenant classifier rule claimed,
	// TenantDownLoss counts frames addressed to tenants that died in
	// place (contained failures that never removed the device from the
	// ring).
	ThrottledLoss   uint64 `json:"throttled_loss,omitempty"`
	QuarantinedLoss uint64 `json:"quarantined_loss,omitempty"`
	TenantDownLoss  uint64 `json:"tenant_down_loss,omitempty"`

	// VerifiedEpochs counts device-epochs diffed against the reference
	// mirror; VerdictDivergences counts divergences on devices that
	// were NOT deliberately corrupted (the chaos gate requires zero).
	VerifiedEpochs     uint64 `json:"verified_epochs"`
	VerdictDivergences uint64 `json:"verdict_divergences"`

	// Health and rebalance accounting.
	CorruptionsInjected int `json:"corruptions_injected"`
	Quarantines         int `json:"quarantines"`
	Drains              int `json:"drains"`
	Readmits            int `json:"readmits"`
	Kills               int `json:"kills"`
	DeadDevices         int `json:"dead_devices"`

	// Rollout outcome: "idle", "rolling", "done", "halted" or
	// "rolled-back"; empty when no update was configured. RolloutHalt
	// carries the halt cause.
	Rollout     string `json:"rollout,omitempty"`
	RolloutHalt string `json:"rollout_halt,omitempty"`

	// Device folds every served device-epoch on a nic.Timeline, one
	// step per epoch: counters sum and latency means are packet-weighted;
	// the devices of an epoch serve side by side, so their rates sum,
	// and each epoch's rate is weighted by the cycles it served for.
	Device nic.Report `json:"device"`

	// PerDevice summarises each shard's fate.
	PerDevice []DeviceStatus `json:"per_device"`
}

// DeviceStatus is one shard's end-of-run summary.
type DeviceStatus struct {
	ID         int    `json:"id"`
	State      string `json:"state"`
	Updated    bool   `json:"updated"`
	Reverted   bool   `json:"reverted"`
	Drains     int    `json:"drains"`
	Received   uint64 `json:"received"`
	QueueLost  uint64 `json:"queue_lost"`
	DeathCause string `json:"death_cause,omitempty"`
	// DeadTenants counts tenant pipelines that died in place on this
	// shard (tenant mode only; the device itself kept serving).
	DeadTenants int `json:"dead_tenants,omitempty"`
}

// Accounted reports whether the loss books balance exactly:
//
//	Generated + ExtraInjected ==
//	    Delivered + QueueLost + ThrottledLoss + QuarantinedLoss +
//	    TenantDownLoss + KilledLoss + MidServeLoss + UnroutableLoss
//
// The chaos gate asserts this after every run — loss under chaos is
// bounded (a kill loses at most one partition) and every packet has
// exactly one ledger line. The three tenant-mode lines are zero on
// single-pipeline fleets, where the identity reduces to the classic
// five-way split.
func (r Report) Accounted() bool {
	return r.Generated+r.ExtraInjected ==
		r.Delivered+r.QueueLost+r.ThrottledLoss+r.QuarantinedLoss+
			r.TenantDownLoss+r.KilledLoss+r.MidServeLoss+r.UnroutableLoss
}
