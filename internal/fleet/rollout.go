package fleet

import (
	"fmt"

	"ehdl/internal/ebpf"
	"ehdl/internal/faults"
	"ehdl/internal/liveupdate"
	"ehdl/internal/maps"
	"ehdl/internal/nic"
	"ehdl/internal/obs"
)

// rolloutPhase enumerates rollout state transitions; the value rides in
// the Aux field of KindRolloutPhase events.
type rolloutPhase uint64

// Rollout phases.
const (
	// phaseStart: the rollout armed (fleet-wide).
	phaseStart rolloutPhase = iota
	// phaseDeviceUpdate: a device's canary update was scheduled.
	phaseDeviceUpdate
	// phaseDeviceSoaked: a device's update committed and its soak epoch
	// cleared the throughput floor.
	phaseDeviceSoaked
	// phaseHalt: a canary divergence, typed update failure or
	// throughput regression stopped the rollout (Aux2: the device).
	phaseHalt
	// phaseRevert: a reverse update (old program) was scheduled on an
	// already-updated device.
	phaseRevert
	// phaseDone: every surviving device runs the new program.
	phaseDone
	// phaseRolledBack: the halt finished reverting; every surviving
	// device runs the old program again.
	phaseRolledBack
)

var phaseNames = [...]string{
	"start", "device-update", "device-soaked", "halt", "revert", "done", "rolled-back",
}

// String returns the canonical phase name.
func (p rolloutPhase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint64(p))
}

// fleetWide marks a KindRolloutPhase event not tied to one device.
const fleetWide = ^uint64(0)

// rolloutState is the rolling-update state machine. One device is in
// flight at a time: its update epoch runs the liveupdate canary, the
// following soak epoch must clear the throughput floor (regressed), and
// only then is the next device scheduled. Any typed update failure,
// canary divergence or soak regression halts the rollout and reverts
// the already-updated devices one epoch at a time with the same
// staged-update machinery, old program forward.
type rolloutState struct {
	cfg     *UpdateConfig
	started bool

	// pending is the device whose update was scheduled for the current
	// epoch (-1 none); soaking is the device whose post-update
	// throughput is gated (-1 none), for soakLeft more epochs — the
	// rollout rate is the update epoch plus rolloutRate()-1 soak epochs.
	pending  int
	soaking  int
	soakLeft int
	lastRep  nic.Report

	updated []int // committed devices, in update order (revert stack)
	next    int   // next device id to consider

	halted        bool
	haltReason    string
	revertPending int
	reverts       int
	done          bool
	rolledBack    bool
}

func newRollout(cfg *UpdateConfig, devices int) *rolloutState {
	return &rolloutState{cfg: cfg, pending: -1, soaking: -1, revertPending: -1}
}

// servingProg returns the program a device serves after its most recent
// committed update this epoch: the new program while rolling forward,
// the old one when the commit was a revert.
func (r *rolloutState) servingProg(c *Controller, d *device) *ebpf.Program {
	if r.halted && r.revertPending == d.id {
		return c.prog
	}
	return r.cfg.Prog
}

// schedule runs at the top of each epoch, before traffic partitions.
func (r *rolloutState) schedule(c *Controller) {
	if r.done || r.rolledBack || r.pending >= 0 {
		return
	}
	if !r.started {
		if c.epoch < startEpoch {
			return
		}
		r.started = true
		c.event(obs.KindRolloutPhase, uint64(phaseStart), fleetWide)
	}
	if r.halted {
		r.scheduleRevert(c)
		return
	}
	if r.soaking >= 0 {
		// The soak epoch is evaluated after serving; nothing new starts
		// while one is open.
		return
	}
	// Next healthy, not-yet-updated device in id order.
	for _, d := range c.devices {
		if d.state != stateHealthy || d.updated {
			continue
		}
		ucfg := r.deviceUpdate(d, r.cfg.Prog, r.cfg.Setup)
		if err := d.sh.ScheduleUpdate(0, ucfg); err != nil {
			r.halt(c, d, fmt.Sprintf("schedule: %v", err))
			return
		}
		r.pending = d.id
		r.lastRep = nic.Report{}
		c.event(obs.KindRolloutPhase, uint64(phaseDeviceUpdate), uint64(d.id))
		c.count(metricUpdates, 1)
		return
	}
	// No candidates left: every surviving device is updated (or none
	// ever will be).
	r.done = true
	c.event(obs.KindRolloutPhase, uint64(phaseDone), fleetWide)
}

// scheduleRevert walks the revert stack, one device per epoch.
func (r *rolloutState) scheduleRevert(c *Controller) {
	for len(r.updated) > 0 {
		id := r.updated[len(r.updated)-1]
		d := c.devices[id]
		if d.state != stateHealthy || d.reverted {
			r.updated = r.updated[:len(r.updated)-1]
			continue
		}
		ucfg := r.deviceUpdate(d, c.prog, c.cfg.App.SetupHost)
		if err := d.sh.ScheduleUpdate(0, ucfg); err != nil {
			// A revert that cannot even schedule leaves the device on
			// the new program; record and move on.
			r.updated = r.updated[:len(r.updated)-1]
			continue
		}
		r.pending = id
		r.revertPending = id
		r.lastRep = nic.Report{}
		c.event(obs.KindRolloutPhase, uint64(phaseRevert), uint64(id))
		c.count(metricReverts, 1)
		return
	}
	r.rolledBack = true
	c.event(obs.KindRolloutPhase, uint64(phaseRolledBack), fleetWide)
}

// deviceUpdate builds the update configuration for one device: a small
// canary so a short epoch batch clears it, and a seeded fault campaign
// on the new engine when the chaos plan targets this device's update.
func (r *rolloutState) deviceUpdate(d *device, prog *ebpf.Program, setup func(*maps.Set) error) liveupdate.Config {
	ucfg := liveupdate.Config{
		Prog:          prog,
		Setup:         setup,
		CanaryPackets: canaryPackets,
	}
	if fc, ok := r.cfg.shadowChaos[d.id]; ok && fc.Enabled() {
		ucfg.Faults = faults.New(fc)
	}
	return ucfg
}

// evaluate runs after every device served: it grades the in-flight
// update epoch and the soak epoch, and trips the halt on any failure.
func (r *rolloutState) evaluate(c *Controller) {
	if r.pending >= 0 {
		d := c.devices[r.pending]
		rep := r.lastRep
		id := r.pending
		r.pending = -1
		switch {
		case d.state == stateDead || d.state == stateQuarantined:
			// The device died before or during its update epoch: a
			// device failure, not a program failure — the rollout
			// skips it and continues.
			if r.revertPending == id {
				r.revertPending = -1
			}
		case r.revertPending == id:
			// A revert epoch completed (or failed; either way this
			// device's revert attempt is spent).
			r.revertPending = -1
			if rep.UpdatesCompleted > 0 {
				d.updated = false
				d.reverted = true
				r.reverts++
			}
			if len(r.updated) > 0 && r.updated[len(r.updated)-1] == id {
				r.updated = r.updated[:len(r.updated)-1]
			}
		case rep.UpdatesRolledBack > 0 || rep.UpdateFailure != "":
			r.halt(c, d, fmt.Sprintf("device %d: %s", id, rep.UpdateFailure))
		case rep.UpdatesCompleted > 0:
			d.updated = true
			r.updated = append(r.updated, id)
			r.soaking = id
			r.soakLeft = r.cfg.rolloutRate() - 1
		default:
			// The update never began (no traffic reached the device):
			// leave it un-updated; schedule() will retry it.
		}
		return
	}
	if r.soaking >= 0 && !r.halted {
		d := c.devices[r.soaking]
		id := r.soaking
		if d.state == stateDead || d.state == stateQuarantined {
			// The device died mid-soak: a device failure, not a program
			// failure — the rollout moves on.
			r.soaking = -1
			return
		}
		// The soak gate compares each soak epoch's post-update
		// throughput against the device's last clean pre-update epoch.
		// It only fires when the device actually served traffic this
		// epoch and a baseline exists; a soak epoch with no routed flows
		// is accepted (nothing measurable regressed).
		if d.state == stateHealthy && d.baselineMpps > 0 && d.lastMppsEpoch == c.epoch &&
			regressed(d.baselineMpps, d.lastMpps, r.cfg.TolerancePct) {
			r.soaking = -1
			r.halt(c, d, fmt.Sprintf("device %d: post-update throughput regressed (%.1f -> %.1f Mpps)",
				id, d.baselineMpps, d.lastMpps))
			return
		}
		r.soakLeft--
		if r.soakLeft <= 0 {
			r.soaking = -1
			c.event(obs.KindRolloutPhase, uint64(phaseDeviceSoaked), uint64(id))
		}
	}
}

// regressed is the soak gate's floor rule: current has fallen more than
// tolerancePct below baseline. A non-positive tolerance selects 5%;
// improvements never regress.
func regressed(baseline, current, tolerancePct float64) bool {
	if tolerancePct <= 0 {
		tolerancePct = 5
	}
	return current < baseline*(1-tolerancePct/100)
}

// halt stops the forward rollout and arms the revert walk.
func (r *rolloutState) halt(c *Controller, d *device, reason string) {
	if r.halted {
		return
	}
	r.halted = true
	r.haltReason = reason
	r.soaking = -1
	c.event(obs.KindRolloutPhase, uint64(phaseHalt), uint64(d.id))
	if len(r.updated) == 0 {
		r.rolledBack = true
		c.event(obs.KindRolloutPhase, uint64(phaseRolledBack), fleetWide)
	}
}

// outcome summarises the rollout for the report: "done" (every
// surviving device updated), "rolled-back" (halted and fully reverted),
// "halted" (halted, reverts still outstanding when the run ended),
// "rolling" (ran out of epochs mid-rollout) or "idle".
func (r *rolloutState) outcome() string {
	switch {
	case r.rolledBack:
		return "rolled-back"
	case r.halted:
		return "halted"
	case r.done:
		return "done"
	case r.started:
		return "rolling"
	default:
		return "idle"
	}
}
