package fleet

import (
	"bytes"
	"encoding/json"
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/faults"
	"ehdl/internal/hwsim"
	"ehdl/internal/nic"
	"ehdl/internal/obs"
	"ehdl/internal/protect"
)

func toyUpdate(t *testing.T) *UpdateConfig {
	t.Helper()
	app := apps.Toy()
	prog, err := app.Program()
	if err != nil {
		t.Fatal(err)
	}
	return &UpdateConfig{Prog: prog, Setup: app.SetupHost}
}

// TestRingPartition pins the consistent-hash ring's contract: a
// deterministic, reasonably balanced partition whose flows move only
// off a removed device, never between survivors.
func TestRingPartition(t *testing.T) {
	r := newRing()
	for d := 0; d < 8; d++ {
		r.Add(d)
	}
	const probes = 1 << 14
	home := make([]int, probes)
	load := map[int]int{}
	for h := 0; h < probes; h++ {
		d, ok := r.Lookup(uint32(h) * 2654435761)
		if !ok {
			t.Fatal("lookup failed on a populated ring")
		}
		home[h] = d
		load[d]++
	}
	for d := 0; d < 8; d++ {
		if load[d] == 0 {
			t.Errorf("device %d received no flows", d)
		}
	}
	r.Remove(3)
	moved := 0
	for h := 0; h < probes; h++ {
		d, _ := r.Lookup(uint32(h) * 2654435761)
		if d != home[h] {
			if home[h] != 3 {
				t.Fatalf("flow %d moved %d -> %d though device 3 was removed", h, home[h], d)
			}
			moved++
		}
	}
	if moved != load[3] {
		t.Errorf("%d flows moved, want exactly device 3's %d", moved, load[3])
	}
	// Re-adding restores the identical partition: membership alone
	// determines the ring.
	r.Add(3)
	for h := 0; h < probes; h++ {
		if d, _ := r.Lookup(uint32(h) * 2654435761); d != home[h] {
			t.Fatalf("flow %d not restored to device %d after re-admit", h, home[h])
		}
	}
}

// TestFleetCleanRollout: with no chaos, the rolling canary update walks
// every device, each soak clears the throughput floor, and the fleet
// stays divergence-free end to end.
func TestFleetCleanRollout(t *testing.T) {
	c, err := New(Config{
		Devices:      4,
		App:          apps.Toy(),
		Seed:         11,
		EpochPackets: 256,
		Verify:       true,
		Update:       toyUpdate(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(12)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rollout != "done" {
		t.Fatalf("rollout %q (halt %q), want done", rep.Rollout, rep.RolloutHalt)
	}
	for _, d := range rep.PerDevice {
		if !d.Updated || d.State != "healthy" {
			t.Errorf("device %d: updated=%v state=%s", d.ID, d.Updated, d.State)
		}
	}
	if rep.Device.UpdatesCompleted != 4 || rep.Device.UpdatesRolledBack != 0 {
		t.Errorf("updates completed %d rolled back %d, want 4/0",
			rep.Device.UpdatesCompleted, rep.Device.UpdatesRolledBack)
	}
	if rep.Device.CanariedPackets == 0 {
		t.Error("rollout canaried no packets")
	}
	if rep.VerdictDivergences != 0 || rep.VerifiedEpochs == 0 {
		t.Errorf("verification: %d divergences over %d verified epochs",
			rep.VerdictDivergences, rep.VerifiedEpochs)
	}
	if !rep.Accounted() {
		t.Errorf("loss books don't balance: %+v", rep)
	}
	if rep.QueueLost+rep.KilledLoss+rep.MidServeLoss+rep.UnroutableLoss != 0 {
		t.Errorf("clean run lost packets: %+v", rep)
	}
}

// TestFleetChaosGate is the headline gate: 2 of 5 devices (40%) are
// killed or silently corrupted mid-rollout under sustained load.
// Surviving devices must show zero verdict divergence against the
// reference interpreter, all loss must be bounded by the partitions the
// chaos took and exactly accounted, the corruption must be caught and
// quarantined, and the whole run must replay byte-identically from the
// same seed.
func TestFleetChaosGate(t *testing.T) {
	cfg := Config{
		Devices:      5,
		App:          apps.Toy(),
		Seed:         23,
		EpochPackets: 250,
		Verify:       true,
		Update:       toyUpdate(t),
		KillAt:       map[int][]int{5: {1}},
		CorruptAt:    map[int][]int{7: {2}},
	}
	run := func() Report {
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Run(16)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep := run()

	if rep.Kills != 1 || rep.CorruptionsInjected != 1 {
		t.Fatalf("chaos did not land: %d kills, %d corruptions", rep.Kills, rep.CorruptionsInjected)
	}
	if rep.Quarantines != 1 {
		t.Errorf("silent corruption not quarantined: %d quarantines", rep.Quarantines)
	}
	if rep.DeadDevices != 2 {
		t.Errorf("dead devices %d, want 2 (1 killed + 1 quarantined)", rep.DeadDevices)
	}
	// Zero verdict divergence on flows served by surviving devices.
	if rep.VerdictDivergences != 0 {
		t.Errorf("%d verdict divergences on surviving devices", rep.VerdictDivergences)
	}
	if rep.VerifiedEpochs == 0 {
		t.Error("verification never ran")
	}
	// Loss is bounded by the partition the kill took, and exactly
	// accounted.
	if rep.KilledLoss == 0 || rep.KilledLoss > uint64(cfg.EpochPackets) {
		t.Errorf("killed loss %d outside (0, %d]", rep.KilledLoss, cfg.EpochPackets)
	}
	if !rep.Accounted() {
		t.Errorf("loss books don't balance: generated %d+%d != %d+%d+%d+%d+%d",
			rep.Generated, rep.ExtraInjected, rep.Delivered, rep.QueueLost,
			rep.KilledLoss, rep.MidServeLoss, rep.UnroutableLoss)
	}
	// The rollout completes on the survivors despite the chaos.
	if rep.Rollout != "done" {
		t.Errorf("rollout %q (halt %q), want done on survivors", rep.Rollout, rep.RolloutHalt)
	}
	for _, d := range rep.PerDevice {
		if d.State == "healthy" && !d.Updated {
			t.Errorf("surviving device %d never updated", d.ID)
		}
	}

	// Deterministic same-seed replay, byte for byte.
	a, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(run())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("same-seed replay diverged:\n" + string(a) + "\n" + string(b))
	}
}

// TestFleetRolloutHaltsAndRollsBack: a fault campaign injected into one
// device's shadow pipeline makes its canary diverge; the rollout must
// halt there and revert the devices already updated, leaving the whole
// fleet on the old program.
func TestFleetRolloutHaltsAndRollsBack(t *testing.T) {
	u := toyUpdate(t)
	u.shadowChaos = map[int]faults.Config{
		1: faults.Single(faults.SEUMapEntry, 0.9, 99),
	}
	c, err := New(Config{
		Devices:      4,
		App:          apps.Toy(),
		Seed:         31,
		EpochPackets: 256,
		Update:       u,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(12)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rollout != "rolled-back" {
		t.Fatalf("rollout %q (halt %q), want rolled-back", rep.Rollout, rep.RolloutHalt)
	}
	if rep.RolloutHalt == "" {
		t.Error("halt recorded no cause")
	}
	if rep.Device.UpdatesRolledBack == 0 {
		t.Error("the diverging device's update never rolled back")
	}
	var reverted int
	for _, d := range rep.PerDevice {
		if d.Updated {
			t.Errorf("device %d still on the new program after rollback", d.ID)
		}
		if d.Reverted {
			reverted++
		}
	}
	if reverted == 0 {
		t.Error("no already-updated device was reverted")
	}
	if !rep.Accounted() {
		t.Errorf("loss books don't balance: %+v", rep)
	}
}

// TestFleetDrainReadmit: hair-trigger watchdogs under protection make
// every device recover during its epoch, so the health rule drains them
// from the ring; after the jittered cool-down they re-admit. Flows
// generated while the ring was empty are charged to UnroutableLoss and
// the books still balance exactly.
func TestFleetDrainReadmit(t *testing.T) {
	c, err := New(Config{
		Devices:      2,
		App:          apps.Toy(),
		Seed:         47,
		EpochPackets: 64,
		shell: nic.ShellConfig{Sim: hwsim.Config{
			Protection:            protect.LevelECC,
			WatchdogCycles:        2,
			MaxRecoveries:         -1,
			RecoveryBackoffCycles: 4,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Drains < 2 {
		t.Errorf("recovering devices drained %d times, want >= 2", rep.Drains)
	}
	if rep.Readmits == 0 {
		t.Error("no drained device was re-admitted after cool-down")
	}
	if rep.UnroutableLoss == 0 {
		t.Error("an empty ring charged no unroutable loss")
	}
	if rep.Device.Recoveries == 0 || rep.Device.WatchdogTrips == 0 {
		t.Errorf("no recoveries surfaced: %d recoveries, %d trips",
			rep.Device.Recoveries, rep.Device.WatchdogTrips)
	}
	if !rep.Accounted() {
		t.Errorf("loss books don't balance: %+v", rep)
	}
	if rep.DeadDevices != 0 {
		t.Errorf("%d devices died; drains must be recoverable", rep.DeadDevices)
	}
}

// TestFleetEventCoverage proves the fleet-owned event classes —
// KindRolloutPhase and KindRebalance, exempted from the simulator-side
// coverage test — are actually emitted, and that the fleet metrics
// accumulate.
func TestFleetEventCoverage(t *testing.T) {
	tr := obs.NewTracer(4096)
	reg := obs.NewRegistry()
	c, err := New(Config{
		Devices:      3,
		App:          apps.Toy(),
		Seed:         53,
		EpochPackets: 128,
		Update:       toyUpdate(t),
		KillAt:       map[int][]int{4: {2}},
		Trace:        tr,
		metrics:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(8); err != nil {
		t.Fatal(err)
	}
	seen := map[obs.Kind]bool{}
	for _, ev := range tr.Recent() {
		seen[ev.Kind] = true
	}
	for _, k := range []obs.Kind{obs.KindRolloutPhase, obs.KindRebalance} {
		if !seen[k] {
			t.Errorf("fleet never emitted %q", k)
		}
	}
	if v, _ := reg.CounterValue(metricKills); v != 1 {
		t.Errorf("%s = %d, want 1", metricKills, v)
	}
	if v, _ := reg.CounterValue(metricUpdates); v == 0 {
		t.Errorf("%s never counted", metricUpdates)
	}
	if v, _ := reg.CounterValue(metricDelivered); v == 0 {
		t.Errorf("%s never counted", metricDelivered)
	}
}

// TestFleetRolloutRate: RolloutRate=3 stretches each device's soak to
// two epochs, so a 2-device rollout needs 6 update/soak epochs; it still
// completes, and a shorter run at the same rate must end mid-flight.
func TestFleetRolloutRate(t *testing.T) {
	u := toyUpdate(t)
	u.RolloutRate = 3
	mk := func() *Controller {
		c, err := New(Config{
			Devices:      2,
			App:          apps.Toy(),
			Seed:         61,
			EpochPackets: 128,
			Update:       u,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	rep, err := mk().Run(8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rollout != "done" || rep.Device.UpdatesCompleted != 2 {
		t.Errorf("rate-3 rollout over 8 epochs: %q with %d updates, want done with 2",
			rep.Rollout, rep.Device.UpdatesCompleted)
	}
	// 4 epochs cover the first device's update+soak but not the second
	// device's soak window: the run ends rolling.
	short, err := mk().Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if short.Rollout != "rolling" {
		t.Errorf("rate-3 rollout over 4 epochs: %q, want rolling", short.Rollout)
	}
}

// TestRegressedFloor pins the soak gate's floor rule: a drop within
// tolerance passes, a drop past it fails, improvements never fail, and
// a non-positive tolerance selects the default 5%.
func TestRegressedFloor(t *testing.T) {
	if regressed(100, 96, 5) {
		t.Error("4% drop flagged at 5% tolerance")
	}
	if !regressed(100, 94, 5) {
		t.Error("6% drop not flagged at 5% tolerance")
	}
	if regressed(100, 150, 5) {
		t.Error("improvement flagged as regression")
	}
	if !regressed(100, 90, 0) {
		t.Error("default tolerance not applied for tolerancePct=0")
	}
	if regressed(0, 0, 5) {
		t.Error("zero baseline regressed against zero current")
	}
}

// TestRolloutPhaseString pins the phase names riding in trace events.
func TestRolloutPhaseString(t *testing.T) {
	want := map[rolloutPhase]string{
		phaseStart:        "start",
		phaseDeviceUpdate: "device-update",
		phaseDeviceSoaked: "device-soaked",
		phaseHalt:         "halt",
		phaseRevert:       "revert",
		phaseDone:         "done",
		phaseRolledBack:   "rolled-back",
	}
	for p, name := range want {
		if p.String() != name {
			t.Errorf("phase %d = %q, want %q", uint64(p), p.String(), name)
		}
	}
	if got := rolloutPhase(99).String(); got != "phase(99)" {
		t.Errorf("out-of-range phase = %q", got)
	}
}

// TestRingMembership pins Has/Len and idempotent add/remove.
func TestRingMembership(t *testing.T) {
	r := newRing()
	if r.Len() != 0 {
		t.Errorf("empty ring Len = %d", r.Len())
	}
	if _, ok := r.Lookup(42); ok {
		t.Error("empty ring resolved a lookup")
	}
	r.Add(1)
	r.Add(1) // idempotent
	if !r.Has(1) || r.Has(2) || r.Len() != 1 {
		t.Errorf("membership after add: has(1)=%v has(2)=%v len=%d", r.Has(1), r.Has(2), r.Len())
	}
	r.Remove(2) // not a member: no-op
	r.Remove(1)
	r.Remove(1) // idempotent
	if r.Has(1) || r.Len() != 0 {
		t.Errorf("membership after remove: has(1)=%v len=%d", r.Has(1), r.Len())
	}
}

// TestConfigDefaults pins every zero-value fallback and its override.
func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.devices() != 4 || c.seed() != 1 || c.epochPackets() != 256 || c.offeredPps() != 50e6 {
		t.Errorf("zero config defaults wrong: devices=%d seed=%d packets=%d pps=%g",
			c.devices(), c.seed(), c.epochPackets(), c.offeredPps())
	}
	c = Config{Devices: 2, Seed: 9, EpochPackets: 10, OfferedPps: 1e6}
	if c.devices() != 2 || c.seed() != 9 || c.epochPackets() != 10 || c.offeredPps() != 1e6 {
		t.Error("explicit config values not honoured")
	}
	var u UpdateConfig
	if u.rolloutRate() != 2 {
		t.Errorf("zero update rollout rate %d, want 2", u.rolloutRate())
	}
	u = UpdateConfig{RolloutRate: 1}
	if u.rolloutRate() != 2 {
		t.Error("a rollout rate below 2 must clamp to 2")
	}
	u.RolloutRate = 5
	if u.rolloutRate() != 5 {
		t.Errorf("rollout rate 5 read back as %d", u.rolloutRate())
	}
}

// TestFleetConfigValidation pins the constructor's error paths.
func TestFleetConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("no app accepted")
	}
	if _, err := New(Config{App: apps.Toy(), Update: &UpdateConfig{}}); err == nil {
		t.Error("update config without a program accepted")
	}
}

// TestServeLeavesGeneratedFramesUntouched pins what lets serve hand a
// partition's frames to the shell without copying them: nothing below
// writes into a pulled frame. Every device runs malformed-traffic and
// overflow-burst campaigns (damaged frames, and extras that recycle the
// partition) while a rolling update retains, canaries and replays
// arrivals; every frame the generator produced must read back byte for
// byte after the run.
func TestServeLeavesGeneratedFramesUntouched(t *testing.T) {
	c, err := New(Config{
		Devices:      3,
		App:          apps.Toy(),
		Seed:         5,
		EpochPackets: 256,
		Chaos:        faults.Config{Seed: 5, MalformRate: 0.2, OverflowRate: 0.02, OverflowBurstLen: 32},
		Update:       toyUpdate(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The controller builds an epoch's frames into an arena it resets at
	// the next partition, so an epoch's frames are checked when the next
	// epoch's first frame is asked for, and the last epoch's after Run.
	var frames, pristine [][]byte
	checked := 0
	check := func() {
		for i := range frames {
			if !bytes.Equal(frames[i], pristine[i]) {
				t.Fatalf("frame %d was written to while being served:\n got  %x\n want %x", checked+i, frames[i], pristine[i])
			}
		}
		checked += len(frames)
		frames, pristine = frames[:0], pristine[:0]
	}
	gen := c.next
	c.next = func(arena []byte) (grown, pkt []byte) {
		if len(arena) == 0 {
			check()
		}
		grown, pkt = gen(arena)
		frames = append(frames, pkt)
		pristine = append(pristine, append([]byte(nil), pkt...))
		return grown, pkt
	}
	rep, err := c.Run(8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Device.MalformedSent == 0 || rep.ExtraInjected == 0 || rep.Device.UpdatesCompleted+rep.Device.UpdatesRolledBack == 0 {
		t.Fatalf("run missed a path that handles pulled frames: %d malformed, %d overflow extras, %d updates",
			rep.Device.MalformedSent, rep.ExtraInjected, rep.Device.UpdatesCompleted+rep.Device.UpdatesRolledBack)
	}
	check()
	if checked != 8*256 {
		t.Errorf("checked %d frames, generated %d", checked, 8*256)
	}
}

// TestFleetRunIsOneShot: a controller drives one run. A second Run
// would restart the epochs, re-apply the kill schedule and append a
// second set of device rows, so it is refused and the first run's
// report stays as it stood.
func TestFleetRunIsOneShot(t *testing.T) {
	c, err := New(Config{Devices: 3, App: apps.Toy(), Seed: 5, EpochPackets: 100, KillAt: map[int][]int{2: {1}}})
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.PerDevice) != 3 || first.DeadDevices != 1 {
		t.Fatalf("first run: %d device rows, %d dead; want 3 and 1", len(first.PerDevice), first.DeadDevices)
	}
	want, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(4); err == nil {
		t.Error("a second Run on the same controller was accepted")
	}
	if got, _ := json.Marshal(c.rep); !bytes.Equal(got, want) {
		t.Errorf("a second Run changed the report:\n%s\nwant\n%s", got, want)
	}
}
