package hwsim

import (
	"testing"

	"ehdl/internal/core"
	"ehdl/internal/faults"
	"ehdl/internal/obs"
	"ehdl/internal/protect"
)

// runTraced drives packets through a fresh simulator with an in-memory
// tracer (and whatever else cfg arms) attached, returning the events.
func runTraced(t *testing.T, name, src string, cfg Config, packets [][]byte) []obs.Event {
	t.Helper()
	pl := compile(t, name, src, core.Options{})
	sink := obs.NewMemSink()
	cfg.Trace = obs.NewTracer(0, sink)
	sim, err := New(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.env.Now = func() uint64 { return 0 }
	for _, data := range packets {
		for !sim.InputFree() {
			if err := sim.Step(); err != nil {
				t.Fatal(err)
			}
		}
		sim.Inject(data)
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.RunToCompletion(1 << 20); err != nil {
		t.Fatal(err)
	}
	return sink.Events()
}

func kindsOf(evs []obs.Event) map[obs.Kind]bool {
	seen := map[obs.Kind]bool{}
	for _, ev := range evs {
		seen[ev.Kind] = true
	}
	return seen
}

// TestProbesHazardRun checks the core event classes and the metrics
// registry against a same-flow run dense in RAW hazards and flushes.
func TestProbesHazardRun(t *testing.T) {
	reg := obs.NewRegistry()
	var packets [][]byte
	for i := 0; i < 12; i++ {
		packets = append(packets, ipv4Packet(0x0a000001, 64))
	}
	evs := runTraced(t, "flow", flowSource, Config{Metrics: reg}, packets)

	seen := kindsOf(evs)
	for _, k := range []obs.Kind{
		obs.KindInject, obs.KindStageEnter, obs.KindStageExit,
		obs.KindPredicate, obs.KindMapAccess,
		obs.KindFlushBegin, obs.KindFlushEnd, obs.KindVerdict,
	} {
		if !seen[k] {
			t.Errorf("event class %q missing from a hazard-dense run", k)
		}
	}

	if n, _ := reg.CounterValue(metricFlushes); n == 0 {
		t.Error("same-flow packets back to back produced no flushes")
	}
	if n, _ := reg.CounterValue(metricMapPortOps); n == 0 {
		t.Error("map port ops counter never incremented")
	}
	if h, ok := reg.HistogramByName(metricCyclesPerPacket); !ok || h.Count() != uint64(len(packets)) {
		t.Errorf("cycles-per-packet histogram has %v observations, want one per packet (%d)",
			h.Count(), len(packets))
	}
	if h, ok := reg.HistogramByName(metricFlushPenalty); !ok || h.Count() == 0 {
		t.Error("flush penalty histogram never observed an episode")
	}
}

// TestProbesWARShadow: the write-before-read geometry captures a
// write-delay shadow on every insert.
func TestProbesWARShadow(t *testing.T) {
	var packets [][]byte
	for i := 0; i < 8; i++ {
		pkt := ipv4Packet(0x0a000001, 64)
		pkt[40] = byte(i)
		packets = append(packets, pkt)
	}
	evs := runTraced(t, "war", warSource, Config{}, packets)
	if !kindsOf(evs)[obs.KindWARShadow] {
		t.Error("WAR program emitted no war_shadow events")
	}
}

// TestProbesQueueDrop: a refused injection on a full one-slot ingress
// queue is traced.
func TestProbesQueueDrop(t *testing.T) {
	pl := compile(t, "toy", toySource, core.Options{})
	sink := obs.NewMemSink()
	sim, err := New(pl, Config{InputQueuePackets: 1, Trace: obs.NewTracer(0, sink)})
	if err != nil {
		t.Fatal(err)
	}
	sim.env.Now = func() uint64 { return 0 }
	if !sim.Inject(ethPacket(2048, 64)) {
		t.Fatal("first packet refused by an empty queue")
	}
	if sim.Inject(ethPacket(2048, 64)) {
		t.Fatal("second packet accepted by a full one-slot queue")
	}
	if err := sim.RunToCompletion(1 << 16); err != nil {
		t.Fatal(err)
	}
	if !kindsOf(sink.Events())[obs.KindQueueDrop] {
		t.Error("refused injection emitted no queue_drop event")
	}
}

// TestProbesSelfHealing: an SEU campaign under parity (every detected
// flip is uncorrectable, so drain-and-restart must fire) with an
// every-cycle scrubber traces the whole recovery vocabulary.
func TestProbesSelfHealing(t *testing.T) {
	var packets [][]byte
	for i := 0; i < 300; i++ {
		packets = append(packets, ipv4Packet(0x0a000000+uint32(i%7), 64))
	}
	evs := runTraced(t, "flow", flowSource, Config{
		Faults:             faults.New(faults.Single(faults.SEUMapEntry, 0.01, 11)),
		Protection:         protect.LevelParity,
		ScrubCyclesPerWord: 1,
		MaxRecoveries:      -1,
	}, packets)

	seen := kindsOf(evs)
	for _, k := range []obs.Kind{obs.KindFault, obs.KindScrub, obs.KindCheckpoint, obs.KindRecovery} {
		if !seen[k] {
			t.Errorf("event class %q missing from the SEU campaign", k)
		}
	}
}

// TestProbesWatchdog: a hair-trigger watchdog under protection converts
// its trip into a traced drain-and-restart.
func TestProbesWatchdog(t *testing.T) {
	var packets [][]byte
	for i := 0; i < 4; i++ {
		packets = append(packets, ethPacket(2048, 64))
	}
	evs := runTraced(t, "toy", toySource, Config{
		Protection:            protect.LevelECC,
		WatchdogCycles:        2,
		MaxRecoveries:         -1,
		RecoveryBackoffCycles: 16,
	}, packets)

	seen := kindsOf(evs)
	if !seen[obs.KindWatchdog] {
		t.Error("hair-trigger watchdog emitted no watchdog event")
	}
	if !seen[obs.KindRecovery] {
		t.Error("watchdog trip under protection emitted no recovery event")
	}
}
