package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"ehdl/internal/durable"
	"ehdl/internal/faults"
	"ehdl/internal/hwsim"
	"ehdl/internal/nic"
	"ehdl/internal/obs"
	"ehdl/internal/protect"
	"ehdl/internal/rss"
)

// This file threads the durable write-ahead journal through the fleet
// controller. Every epoch the controller canonicalises its full state —
// ring membership, rollout/revert state machine, drain cool-downs,
// per-device soak baselines, fleet RNG position, map state via the
// canonical SetSnapshot encoding — into one deterministic JSON blob,
// journals its digest and fsyncs. The journal is the only durable
// record: the blob itself is never written, because replay rebuilds it.
// The commit happens before Run proceeds past the epoch, so by the time
// an epoch's effects are observable to the caller its record is durable.
//
// Recovery leans on the property the chaos gate already proves: a fleet
// run is a pure function of its fingerprinted configuration, so
// re-executing epochs from zero reconstructs every bit of controller,
// device, mirror and traffic-generator state — including the RNG stream
// positions that live inside per-device fault injectors and cannot be
// captured from outside. The journal turns that replay from "trust the
// determinism" into "verify it": each re-executed epoch must reproduce
// the journaled digest exactly, or resume fails with a typed
// *replayDivergenceError instead of silently diverging from the crashed
// run.

// Journal record types.
const (
	// recConfig is the first record of every journal: the run's
	// fingerprinted configuration, verified on resume.
	recConfig byte = 1
	// recEpoch commits one epoch: {"epoch":N,"digest":"sha256-hex"}.
	recEpoch byte = 2
	// recComplete marks a finished run and pins the final report digest.
	recComplete byte = 3
)

// journalFileName is the journal inside Config.JournalDir.
const journalFileName = "journal.wal"

// metricReplayedEpochs counts epochs re-executed and digest-verified
// during crash recovery.
const metricReplayedEpochs = "fleet.replayed_epochs"

// errJournalExists reports a journal directory holding a previous run
// opened without Resume: refusing to overwrite it is the safe default.
var errJournalExists = errors.New("fleet: journal holds a previous run (pass -resume to recover it, or use a fresh directory)")

// errSimulatedCrash is what a crash-site panic resolves to: the
// in-process stand-in for kill -9 the recovery gate drives.
var errSimulatedCrash = errors.New("fleet: simulated crash")

// simCrash is the panic payload of an armed crash site.
type simCrash string

// configMismatchError reports a resume whose configuration fingerprint
// does not match the journaled run — replaying a different config would
// silently produce a different fleet, so it is refused up front.
type configMismatchError struct {
	Path       string
	GotDigest  string // fingerprint of the resuming config
	WantDigest string // fingerprint journaled by the original run
}

func (e *configMismatchError) Error() string {
	return fmt.Sprintf("fleet: %s: resume config fingerprint %.12s does not match the journaled run %.12s",
		e.Path, e.GotDigest, e.WantDigest)
}

// replayDivergenceError reports a recovery replay that failed to
// reproduce the journaled run: a re-executed epoch whose state digest
// or final report differs from what the crashed run committed. Epoch
// is -1 for the final-report check.
type replayDivergenceError struct {
	Epoch int
	What  string
	Got   string
	Want  string
}

func (e *replayDivergenceError) Error() string {
	return fmt.Sprintf("fleet: replay diverged at epoch %d: %s %.12s does not reproduce the journaled %.12s",
		e.Epoch, e.What, e.Got, e.Want)
}

// DurabilityError reports whether err is a journal/recovery failure —
// the class `ehdl fleet` maps to its own exit code, distinct from config
// errors and rollback outcomes.
func DurabilityError(err error) bool {
	var cm *configMismatchError
	var rd *replayDivergenceError
	var cr *durable.CorruptRecordError
	return errors.As(err, &cm) || errors.As(err, &rd) || errors.As(err, &cr) ||
		errors.Is(err, errJournalExists) || errors.Is(err, errSimulatedCrash)
}

// RecoveryInfo summarises what recovery did. It is deliberately NOT
// part of Report: the recovery gate requires a resumed run's report to
// be byte-identical to the uninterrupted run's, so everything that
// differs between the two lives here.
type RecoveryInfo struct {
	// Resumed is true when the journal held a previous run.
	Resumed bool `json:"resumed"`
	// ReplayedEpochs counts epochs re-executed under digest
	// verification before live execution took over.
	ReplayedEpochs int `json:"replayed_epochs"`
	// TornBytesTruncated is the size of the partial tail record a
	// crashed append left behind, discarded on open.
	TornBytesTruncated int64 `json:"torn_bytes_truncated"`
	// CompletedPrior is true when the journal already held a complete
	// run; the replay then verifies the final report digest too.
	CompletedPrior bool `json:"completed_prior"`
}

// durState is the controller's durability attachment.
type durState struct {
	j *durable.Journal

	// replayDigests[e] is the journaled state digest of epoch e; the
	// replayed prefix of a resumed run is verified against it.
	replayDigests []string
	completed     bool
	completeDig   string

	info RecoveryInfo
}

// epochRec is the recEpoch payload.
type epochRec struct {
	Epoch  int    `json:"epoch"`
	Digest string `json:"digest"`
}

// completeRec is the recComplete payload.
type completeRec struct {
	Digest string `json:"digest"`
}

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// ---- configuration fingerprint ----------------------------------------

// fpShell is what of a shell template shapes a run. Clock, queue
// count, batch and ingress queue depth are resolved; the recovery
// knobs stay raw because hwsim keeps their defaults private. The
// simulator's attachments (tracer, registry, injector) do not shape a
// run, and its clock is the shell's. StrictCarryCheck is always false:
// the simulator lost that knob, and the field keeps the fingerprints of
// journals written with it byte-identical.
type fpShell struct {
	ClockHz               float64            `json:"clock_hz"`
	Queues                int                `json:"queues"`
	Batch                 int                `json:"batch"`
	FastPath              bool               `json:"fastpath"`
	Faults                faults.Config      `json:"faults"`
	Policy                hwsim.HazardPolicy `json:"policy"`
	StrictCarryCheck      bool               `json:"strict_carry_check"`
	QueuePackets          int                `json:"queue_packets"`
	WatchdogCycles        int                `json:"watchdog_cycles"`
	Protection            protect.Level      `json:"protection"`
	ScrubCyclesPerWord    int                `json:"scrub_cycles_per_word"`
	MaxRecoveries         int                `json:"max_recoveries"`
	RecoveryBackoffCycles int                `json:"recovery_backoff_cycles"`
	RecoveryJitterSeed    int64              `json:"recovery_jitter_seed"`
}

func shellFingerprint(sh nic.ShellConfig) fpShell {
	sim := sh.Sim
	sim.ClockHz = sh.ClockHz
	fp := fpShell{
		ClockHz: sim.Clock(), Queues: max(sh.Queues, 1), FastPath: sh.FastPath, Faults: sh.Faults,
		Policy: sim.Policy, QueuePackets: sim.QueueDepth(),
		WatchdogCycles: sim.WatchdogCycles, Protection: sim.Protection,
		ScrubCyclesPerWord: sim.ScrubCyclesPerWord, MaxRecoveries: sim.MaxRecoveries,
		RecoveryBackoffCycles: sim.RecoveryBackoffCycles, RecoveryJitterSeed: sim.RecoveryJitterSeed,
	}
	if fp.Queues > 1 {
		fp.Batch = sh.Batch
		if fp.Batch <= 0 {
			fp.Batch = rss.DefaultBatch
		}
	}
	return fp
}

type fpUpdate struct {
	Prog          string                `json:"prog"`
	StartEpoch    int                   `json:"start_epoch"`
	RolloutRate   int                   `json:"rollout_rate"`
	TolerancePct  float64               `json:"tolerance_pct"`
	CanaryPackets int                   `json:"canary_packets"`
	ShadowChaos   map[int]faults.Config `json:"shadow_chaos,omitempty"`
}

type fpTenant struct {
	Name    string  `json:"name"`
	App     string  `json:"app"`
	Share   float64 `json:"share"`
	VLAN    uint16  `json:"vlan"`
	SrcNet  uint32  `json:"src_net"`
	SrcMask uint32  `json:"src_mask"`
	Default bool    `json:"default"`
	Shell   fpShell `json:"shell"`
}

// fingerprint is the deterministic identity of a fleet run: every
// configuration input that shapes execution, in fixed field order.
// (encoding/json sorts the map keys, so the int-keyed chaos schedules
// encode byte-stably too.)
type fingerprint struct {
	Schema          int           `json:"schema"`
	Epochs          int           `json:"epochs"`
	Devices         int           `json:"devices"`
	App             string        `json:"app"`
	Seed            int64         `json:"seed"`
	EpochPackets    int           `json:"epoch_packets"`
	OfferedPps      float64       `json:"offered_pps"`
	Verify          bool          `json:"verify"`
	Shell           fpShell       `json:"shell"`
	Chaos           faults.Config `json:"chaos"`
	KillAt          map[int][]int `json:"kill_at,omitempty"`
	CorruptAt       map[int][]int `json:"corrupt_at,omitempty"`
	Update          *fpUpdate     `json:"update,omitempty"`
	Tenants         []fpTenant    `json:"tenants,omitempty"`
	TenantBandPct   float64       `json:"tenant_band_pct"`
	DrainRecoveries uint64        `json:"drain_recoveries"`
	CooldownEpochs  int           `json:"cooldown_epochs"`
	SnapshotEvery   int           `json:"snapshot_every"`
}

// snapshotEvery is the snapshot cadence schema-2 journals recorded when
// the fleet still wrote periodic state snapshots; the fingerprint keeps
// the old default so those journals resume.
const snapshotEvery = 4

// configFingerprint canonicalises the run configuration: a field with a
// default goes through the accessor that resolves it (fpShell says which
// simulator fields stay raw), so a run journaled with such a field at 0
// resumes with the value 0 means. DrainRecoveries, CooldownEpochs,
// SnapshotEvery, StartEpoch and CanaryPackets record package
// constants; they stay in the record so that every schema-2 journal
// still matches. The epoch count is part of the identity: a journal
// records one specific run, and resuming it for a different horizon
// would change what every journaled digest means.
func (c *Controller) configFingerprint(epochs int) ([]byte, error) {
	fp := fingerprint{
		Schema:          2,
		Epochs:          epochs,
		Devices:         c.cfg.devices(),
		Seed:            c.cfg.seed(),
		EpochPackets:    c.cfg.epochPackets(),
		OfferedPps:      c.cfg.offeredPps(),
		Verify:          c.cfg.Verify,
		Shell:           shellFingerprint(c.cfg.shell),
		Chaos:           c.cfg.Chaos,
		KillAt:          c.cfg.KillAt,
		CorruptAt:       c.cfg.CorruptAt,
		TenantBandPct:   c.cfg.tenantBandPct(),
		DrainRecoveries: drainRecoveries,
		CooldownEpochs:  cooldownEpochs,
		SnapshotEvery:   snapshotEvery,
	}
	if c.cfg.App != nil {
		fp.App = c.cfg.App.Name
	}
	if u := c.cfg.Update; u != nil {
		fp.Update = &fpUpdate{
			Prog:          u.Prog.Name,
			StartEpoch:    startEpoch,
			RolloutRate:   u.rolloutRate(),
			TolerancePct:  u.TolerancePct,
			CanaryPackets: canaryPackets,
			ShadowChaos:   u.shadowChaos,
		}
	}
	for _, sp := range c.cfg.Tenants {
		ft := fpTenant{
			Name: sp.Name, Share: sp.Share, VLAN: sp.VLAN,
			SrcNet: sp.SrcNet, SrcMask: sp.SrcMask, Default: sp.Default,
			Shell: shellFingerprint(sp.Shell),
		}
		if sp.App != nil {
			ft.App = sp.App.Name
		}
		fp.Tenants = append(fp.Tenants, ft)
	}
	b, err := json.Marshal(fp)
	if err != nil {
		return nil, fmt.Errorf("fleet: config fingerprint: %w", err)
	}
	return b, nil
}

// ---- canonical full-state encoding ------------------------------------

type persistedMap struct {
	Keys   []string `json:"k"`
	Values []string `json:"v"`
}

type persistedDevice struct {
	ID            int     `json:"id"`
	State         string  `json:"state"`
	CooldownUntil int     `json:"cooldown_until"`
	Corrupted     bool    `json:"corrupted"`
	DeathCause    string  `json:"death_cause"`
	Updated       bool    `json:"updated"`
	Reverted      bool    `json:"reverted"`
	BaselineMpps  float64 `json:"baseline_mpps"`
	LastMpps      float64 `json:"last_mpps"`
	LastMppsEpoch int     `json:"last_mpps_epoch"`
	Received      uint64  `json:"received"`
	Lost          uint64  `json:"lost"`
	Drains        int     `json:"drains"`
	InRing        bool    `json:"in_ring"`
	// Maps is the device's full map state in the canonical (key-sorted,
	// hex) encoding — single-pipeline devices only.
	Maps []persistedMap `json:"maps,omitempty"`
}

type persistedRollout struct {
	Started       bool   `json:"started"`
	Pending       int    `json:"pending"`
	Soaking       int    `json:"soaking"`
	SoakLeft      int    `json:"soak_left"`
	Updated       []int  `json:"updated"`
	Halted        bool   `json:"halted"`
	HaltReason    string `json:"halt_reason"`
	RevertPending int    `json:"revert_pending"`
	Reverts       int    `json:"reverts"`
	Done          bool   `json:"done"`
	RolledBack    bool   `json:"rolled_back"`
}

// persistedState is the per-epoch state record: everything the
// controller owns, in deterministic byte-stable JSON (fixed field
// order, canonical key-sorted map entries). Device-internal simulator
// state (fault-injector RNG streams, pipeline registers) is not
// captured — it is reconstructed by deterministic replay, which the
// journaled digests verify. Only its digest is journaled.
type persistedState struct {
	Schema int `json:"schema"`
	Epoch  int `json:"epoch"`
	// RNGDraws is the fleet RNG stream position (cool-down jitter
	// draws consumed so far).
	RNGDraws uint64            `json:"rng_draws"`
	Ring     []int             `json:"ring"`
	Report   Report            `json:"report"`
	Rollout  *persistedRollout `json:"rollout,omitempty"`
	Devices  []persistedDevice `json:"devices"`
}

// persistedState canonicalises the controller after epoch e.
func (c *Controller) persistedState(e int) persistedState {
	st := persistedState{Schema: 1, Epoch: e, RNGDraws: c.rngDraws, Ring: []int{}, Report: c.rep}
	for _, d := range c.devices {
		if c.ring.Has(d.id) {
			st.Ring = append(st.Ring, d.id)
		}
		pd := persistedDevice{
			ID: d.id, State: d.state.String(), CooldownUntil: d.cooldownUntil,
			Corrupted: d.corrupted, DeathCause: d.deathCause,
			Updated: d.updated, Reverted: d.reverted,
			BaselineMpps: d.baselineMpps, LastMpps: d.lastMpps, LastMppsEpoch: d.lastMppsEpoch,
			Received: d.received, Lost: d.lost, Drains: d.drains,
			InRing: c.ring.Has(d.id),
		}
		if d.sh != nil {
			for _, me := range d.sh.Maps().Snapshot().Canonical() {
				pm := persistedMap{Keys: []string{}, Values: []string{}}
				for i := range me.Keys {
					pm.Keys = append(pm.Keys, hex.EncodeToString(me.Keys[i]))
					pm.Values = append(pm.Values, hex.EncodeToString(me.Values[i]))
				}
				pd.Maps = append(pd.Maps, pm)
			}
		}
		st.Devices = append(st.Devices, pd)
	}
	if r := c.rollout; r != nil {
		st.Rollout = &persistedRollout{
			Started: r.started, Pending: r.pending, Soaking: r.soaking,
			SoakLeft: r.soakLeft, Updated: append([]int{}, r.updated...),
			Halted: r.halted, HaltReason: r.haltReason,
			RevertPending: r.revertPending, Reverts: r.reverts,
			Done: r.done, RolledBack: r.rolledBack,
		}
	}
	return st
}

// ---- crash sites -------------------------------------------------------

// crashSite is a named point the recovery gate can kill the controller
// at: when armed (crashAt) it panics with a simCrash the Run recover
// converts to errSimulatedCrash, exactly as if the process died there —
// no journal commit, no cleanup. Probe mode records every site a run
// passes so the gate can enumerate them. Sites never fire during
// recovery replay: the replayed prefix must re-execute unconditionally.
func (c *Controller) crashSite(name string) {
	if c.replaying {
		return
	}
	if c.crashProbe != nil {
		c.crashProbe[name]++
	}
	if name != "" && name == c.crashAt {
		panic(simCrash(name))
	}
}

// ---- journal open / commit / complete ----------------------------------

// durOpen attaches the journal: fresh runs write the config fingerprint
// record; resumed runs verify it and parse the epoch tail the replay
// checks against.
func (c *Controller) durOpen(epochs int) error {
	if c.cfg.JournalDir == "" {
		if c.cfg.Resume {
			return fmt.Errorf("fleet: Resume requires a journal directory")
		}
		return nil
	}
	if err := os.MkdirAll(c.cfg.JournalDir, 0o755); err != nil {
		return fmt.Errorf("fleet: journal dir: %w", err)
	}
	opt := durable.Options{Metrics: c.cfg.metrics}
	path := filepath.Join(c.cfg.JournalDir, journalFileName)
	j, recs, torn, err := durable.OpenJournal(path, opt)
	if err != nil {
		return err
	}
	d := &durState{j: j}
	d.info.TornBytesTruncated = torn

	fpJSON, err := c.configFingerprint(epochs)
	if err != nil {
		j.Close()
		return err
	}
	if len(recs) == 0 {
		// Fresh journal (or one torn back to nothing): start the run.
		if err := j.Append(durable.Record{Type: recConfig, Payload: fpJSON}); err != nil {
			j.Close()
			return err
		}
		if err := j.Commit(); err != nil {
			j.Close()
			return err
		}
		c.dur = d
		return nil
	}
	if !c.cfg.Resume {
		j.Close()
		return fmt.Errorf("%w: %s", errJournalExists, path)
	}
	if recs[0].Type != recConfig {
		j.Close()
		return &durable.CorruptRecordError{Path: path, Index: 0,
			Reason: fmt.Sprintf("first record has type %d, want config fingerprint", recs[0].Type)}
	}
	if got, want := digestOf(fpJSON), digestOf(recs[0].Payload); got != want {
		j.Close()
		return &configMismatchError{Path: path, GotDigest: got, WantDigest: want}
	}
	for i, r := range recs[1:] {
		switch r.Type {
		case recEpoch:
			var er epochRec
			if jerr := json.Unmarshal(r.Payload, &er); jerr != nil || er.Epoch != len(d.replayDigests) {
				j.Close()
				return &durable.CorruptRecordError{Path: path, Index: i + 1,
					Reason: fmt.Sprintf("epoch record out of sequence (want epoch %d)", len(d.replayDigests))}
			}
			d.replayDigests = append(d.replayDigests, er.Digest)
		case recComplete:
			var cr completeRec
			if jerr := json.Unmarshal(r.Payload, &cr); jerr != nil {
				j.Close()
				return &durable.CorruptRecordError{Path: path, Index: i + 1, Reason: "malformed completion record"}
			}
			d.completed = true
			d.completeDig = cr.Digest
		default:
			j.Close()
			return &durable.CorruptRecordError{Path: path, Index: i + 1,
				Reason: fmt.Sprintf("unknown record type %d", r.Type)}
		}
	}
	d.info.Resumed = true
	d.info.CompletedPrior = d.completed
	c.replaying = len(d.replayDigests) > 0
	c.dur = d
	return nil
}

// durEpoch runs at the bottom of every epoch. Replayed epochs are
// verified against the journaled digest; live epochs append and fsync
// their record before Run proceeds.
func (c *Controller) durEpoch(e int) error {
	if c.dur == nil {
		return nil
	}
	d := c.dur
	payload, err := json.Marshal(c.persistedState(e))
	if err != nil {
		return fmt.Errorf("fleet: encode state: %w", err)
	}
	digest := digestOf(payload)
	if e < len(d.replayDigests) {
		if digest != d.replayDigests[e] {
			return &replayDivergenceError{Epoch: e, What: "re-executed state digest", Got: digest, Want: d.replayDigests[e]}
		}
		d.info.ReplayedEpochs++
		c.count(metricReplayedEpochs, 1)
		c.event(obs.KindReplayEpoch, 0, 0)
		if e == len(d.replayDigests)-1 {
			// Caught up with the journal tail: live execution (and crash
			// sites) take over from the next statement on.
			c.replaying = false
		}
		return nil
	}
	c.crashSite(fmt.Sprintf("epoch:e%d:pre-commit", e))
	rec, err := json.Marshal(epochRec{Epoch: e, Digest: digest})
	if err != nil {
		return fmt.Errorf("fleet: encode epoch record: %w", err)
	}
	if err := d.j.Append(durable.Record{Type: recEpoch, Payload: rec}); err != nil {
		return err
	}
	c.crashSite(fmt.Sprintf("epoch:e%d:pre-sync", e))
	if err := d.j.Commit(); err != nil {
		return err
	}
	c.crashSite(fmt.Sprintf("epoch:e%d:post-commit", e))
	c.event(obs.KindJournalCommit, uint64(len(rec)), uint64(d.j.Size()))
	return nil
}

// durComplete seals a finished run with the final report digest — or,
// when resuming past a completed run, verifies the reconstructed report
// against it.
func (c *Controller) durComplete() error {
	if c.dur == nil {
		return nil
	}
	d := c.dur
	payload, err := json.Marshal(c.rep)
	if err != nil {
		return fmt.Errorf("fleet: encode report: %w", err)
	}
	digest := digestOf(payload)
	if d.completed {
		if digest != d.completeDig {
			return &replayDivergenceError{Epoch: -1, What: "final report digest", Got: digest, Want: d.completeDig}
		}
		return nil
	}
	c.crashSite("complete:pre-commit")
	rec, err := json.Marshal(completeRec{Digest: digest})
	if err != nil {
		return fmt.Errorf("fleet: encode completion record: %w", err)
	}
	if err := d.j.Append(durable.Record{Type: recComplete, Payload: rec}); err != nil {
		return err
	}
	if err := d.j.Commit(); err != nil {
		return err
	}
	c.crashSite("complete:post-commit")
	return nil
}

// RecoveryInfo reports what recovery did on the last Run. The zero
// value means no journal was configured or the run was fresh.
func (c *Controller) RecoveryInfo() RecoveryInfo {
	if c.dur == nil {
		return RecoveryInfo{}
	}
	return c.dur.info
}
