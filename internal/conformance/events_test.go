package conformance

import (
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/asm"
	"ehdl/internal/core"
	"ehdl/internal/ebpf"
	"ehdl/internal/faults"
	"ehdl/internal/hwsim"
	"ehdl/internal/obs"
	"ehdl/internal/pktgen"
	"ehdl/internal/protect"
)

// tracedEventsApp is tracedEvents over an already-resolved app.
func tracedEventsApp(t *testing.T, app *apps.App, flows, n int, sim hwsim.Config) []obs.Event {
	t.Helper()
	cfg := app.Traffic
	if flows > 0 {
		cfg.Flows = flows
	}
	cfg.Seed = 0x1417
	packets := pktgen.NewGenerator(cfg).Batch(n)
	prog, err := app.Program()
	if err != nil {
		t.Fatal(err)
	}
	tr, sink := memTracer()
	sim.Trace = tr
	if _, _, err := compileAndRun(prog, interpreter, app.SetupHost, packets, Config{sim: sim}); err != nil {
		t.Fatal(err)
	}
	return sink.Events()
}

// TestEventClassCoverage proves the tracer's taxonomy is live end to
// end: across a small set of engineered runs — every app under
// single-flow hazard pressure, a one-slot ingress queue, an SEU
// campaign with ECC and scrubbing, and a hair-trigger watchdog — every
// event class the observability layer defines is actually emitted by
// the simulator.
func TestEventClassCoverage(t *testing.T) {
	seen := map[obs.Kind]bool{}
	collect := func(evs []obs.Event) {
		for _, ev := range evs {
			seen[ev.Kind] = true
		}
	}

	// Single-flow hazard pressure on every app: frame movement,
	// predicates, map ports, verdicts, RAW flushes, WAR shadows.
	for _, app := range allApps() {
		collect(tracedEventsApp(t, app, 1, 40, hwsim.Config{}))
	}

	// A one-slot ingress queue refusing a back-to-back burst.
	collect(queueDropEvents(t))

	// A write-before-read program (the Figure 6 WAR geometry none of the
	// evaluation apps exhibits): every map write captures a shadow.
	collect(warShadowEvents(t))

	// SEU map-entry campaign under ECC with an every-cycle scrubber:
	// faults, scrub passes, checkpoints.
	collect(tracedEventsApp(t, mustApp(t, "firewall"), 0, 400, hwsim.Config{
		Faults:             faults.New(faults.Single(faults.SEUMapEntry, 0.005, 11)),
		Protection:         protect.LevelECC,
		ScrubCyclesPerWord: 1,
	}))

	// A hair-trigger watchdog under protection: the trip converts into a
	// drain-and-restart recovery instead of an error.
	collect(tracedEventsApp(t, mustApp(t, "toy"), 1, 4, hwsim.Config{
		Protection:            protect.LevelECC,
		WatchdogCycles:        2,
		MaxRecoveries:         -1,
		RecoveryBackoffCycles: 16,
	}))

	// A traced multi-queue dispatcher: RSS queue-steer decisions.
	collect(queueSteerEvents(t))

	for _, k := range obs.Kinds() {
		switch k {
		case obs.KindUpdatePhase, obs.KindCanaryDiverge:
			// Emitted by the live-update protocol, not the simulator;
			// internal/liveupdate's TestUpdateEventCoverage owns them
			// (liveupdate imports this package, so the runs cannot live
			// here without a cycle).
			continue
		case obs.KindRolloutPhase, obs.KindRebalance:
			// Emitted by the fleet controller; internal/fleet's
			// TestFleetEventCoverage owns them (fleet imports this
			// package for its verdict-divergence gate, same cycle).
			continue
		case obs.KindTenantAdmit, obs.KindTenantReject, obs.KindTenantThrottle:
			// Emitted by the multi-tenant device; internal/tenant's
			// TestTenantEventCoverage owns them (tenant's tests import
			// this package for CompareMaps, same cycle).
			continue
		case obs.KindJournalCommit, obs.KindReplayEpoch:
			// Emitted by the journaled fleet controller; internal/fleet's
			// TestFleetDurableEventCoverage owns them (same import cycle
			// as the rollout kinds above).
			continue
		}
		if !seen[k] {
			t.Errorf("event class %q never emitted by any engineered run", k)
		}
	}
}

// warShadowSource writes per-flow state before reading it back later in
// the same program, forcing a WARDepth > 0 map block whose every write
// captures a write-delay shadow.
const warShadowSource = `
map seen hash key=4 value=8 entries=64

r2 = *(u32 *)(r1 + 0)
r3 = *(u32 *)(r2 + 26)
*(u32 *)(r10 - 4) = r3
*(u64 *)(r10 - 16) = 7

r1 = map[seen] ll
r2 = r10
r2 += -4
r3 = r10
r3 += -16
r4 = 0
call 2

r1 = map[seen] ll
r2 = r10
r2 += -4
call 1
if r0 == 0 goto miss
r0 = 3
exit
miss:
r0 = 1
exit
`

// warShadowEvents drives same-flow packets through the WAR program.
func warShadowEvents(t *testing.T) []obs.Event {
	t.Helper()
	prog, err := asm.Assemble("war-shadow", warShadowSource)
	if err != nil {
		t.Fatal(err)
	}
	gen := pktgen.NewGenerator(pktgen.GeneratorConfig{Flows: 1, PacketLen: 64, Proto: ebpf.IPProtoUDP, Seed: 3})
	tr, sink := memTracer()
	if _, _, err := compileAndRun(prog, interpreter, nil, gen.Batch(8), Config{sim: hwsim.Config{Trace: tr}}); err != nil {
		t.Fatal(err)
	}
	return sink.Events()
}

// queueDropEvents overflows a one-slot ingress queue.
func queueDropEvents(t *testing.T) []obs.Event {
	t.Helper()
	app := mustApp(t, "toy")
	prog, err := app.Program()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.Compile(prog, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr, sink := memTracer()
	sim, err := hwsim.New(pl, hwsim.Config{InputQueuePackets: 1, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	sim.SetClock(func() uint64 { return 0 })
	if err := app.Setup(sim.Maps()); err != nil {
		t.Fatal(err)
	}
	gen := pktgen.NewGenerator(app.Traffic)
	if !sim.Inject(gen.Next()) {
		t.Fatal("first packet refused by an empty queue")
	}
	if sim.Inject(gen.Next()) {
		t.Fatal("second packet accepted by a full one-slot queue")
	}
	if err := sim.RunToCompletion(1 << 16); err != nil {
		t.Fatal(err)
	}
	return sink.Events()
}
