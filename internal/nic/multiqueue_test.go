package nic

import (
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
	"time"

	"ehdl/internal/apps"
	"ehdl/internal/conformance"
	"ehdl/internal/core"
	"ehdl/internal/ebpf"
	"ehdl/internal/faults"
	"ehdl/internal/hwsim"
	"ehdl/internal/liveupdate"
	"ehdl/internal/maps"
	"ehdl/internal/obs"
	"ehdl/internal/pktgen"
	"ehdl/internal/protect"
	"ehdl/internal/rss"
)

func TestMultiQueueRunLoad(t *testing.T) {
	const count = 2000
	sh := newShell(t, apps.Toy(), core.Options{}, ShellConfig{Queues: 4, Sim: hwsim.Config{InputQueuePackets: 64}})
	gen := pktgen.NewGenerator(apps.Toy().Traffic)
	rep, err := sh.RunLoad(gen.Next, count, sh.LineRateMpps(64)*1e6)
	if err != nil {
		t.Fatal(err)
	}

	if rep.QueueCount != 4 || len(rep.PerQueue) != 4 {
		t.Fatalf("queue breakdown missing: count %d, %d entries", rep.QueueCount, len(rep.PerQueue))
	}
	var steered, received uint64
	active := 0
	for _, qr := range rep.PerQueue {
		steered += qr.Steered
		received += qr.Received
		if qr.Steered > 0 {
			active++
			if qr.AchievedMpps <= 0 {
				t.Errorf("queue %d served traffic at %.2f Mpps", qr.Queue, qr.AchievedMpps)
			}
		}
	}
	if steered != rep.Sent {
		t.Errorf("steered %d of %d sent", steered, rep.Sent)
	}
	if active < 2 {
		t.Errorf("1024 flows collapsed onto %d queue(s)", active)
	}
	if received != rep.Received || rep.Received != count || rep.Lost != 0 {
		t.Errorf("accounting: received %d (per-queue %d), lost %d, want %d clean", rep.Received, received, rep.Lost, count)
	}
	if rep.MergeConflicts != 0 {
		t.Errorf("%d merge conflicts on flow-pinned traffic", rep.MergeConflicts)
	}
	if rep.Actions.Count(ebpf.XDPTx) != count {
		t.Errorf("actions = %v, want %d XDP_TX", rep.Actions, count)
	}
	if rep.AvgLatencyNs <= 0 || rep.MaxLatencyNs < rep.AvgLatencyNs {
		t.Errorf("latency accounting broken: avg %.0f ns, max %.0f ns", rep.AvgLatencyNs, rep.MaxLatencyNs)
	}

	// The merged host view must account for every packet: the toy app
	// counts IPv4 frames in stats[1].
	stats, ok := sh.Maps().ByName("stats")
	if !ok {
		t.Fatal("no stats map")
	}
	v, ok := stats.Lookup([]byte{1, 0, 0, 0})
	if !ok {
		t.Fatal("stats[1] missing")
	}
	if got := binary.LittleEndian.Uint64(v); got != count {
		t.Errorf("merged counter %d, want %d", got, count)
	}
}

// TestMultiQueueSpeedup is the scale-out headline in simulated time: a
// single 250 MHz pipeline saturates at 250 Mpps, so at 750 Mpps offered
// it drops and achieves a third of the load, while four replicas split
// the same stream into per-queue rates they sustain cleanly. The
// speedup is measured in simulated cycles, so it holds on any host —
// including the single-CPU CI runner.
func TestMultiQueueSpeedup(t *testing.T) {
	const count = 6000
	const offered = 750e6
	run := func(queues int) Report {
		sh := newShell(t, apps.Toy(), core.Options{}, ShellConfig{Queues: queues, Sim: hwsim.Config{InputQueuePackets: 64}})
		gen := pktgen.NewGenerator(apps.Toy().Traffic)
		rep, err := sh.RunLoad(gen.Next, count, offered)
		if err != nil {
			t.Fatalf("%d queues: %v", queues, err)
		}
		return rep
	}
	single := run(1)
	quad := run(4)
	if single.Lost == 0 {
		t.Error("a single queue should overflow at 3x its line rate")
	}
	if quad.Lost != 0 {
		t.Errorf("4 queues lost %d packets at a quarter of the per-queue load", quad.Lost)
	}
	if speedup := quad.AchievedMpps / single.AchievedMpps; speedup < 2.5 {
		t.Errorf("speedup %.2fx (%.0f vs %.0f Mpps), want >= 2.5x",
			speedup, quad.AchievedMpps, single.AchievedMpps)
	}
}

// TestMultiQueueUpdateSwap: a scheduled live update on a multi-queue
// shell drains every replica, migrates the merged state into the new
// banks and swaps the fleet atomically — and the per-flow counters keep
// counting across the swap without losing a packet.
func TestMultiQueueUpdateSwap(t *testing.T) {
	const count = 1200
	app := apps.Toy()
	sh := newShell(t, app, core.Options{}, ShellConfig{Queues: 4, Sim: hwsim.Config{InputQueuePackets: 64}})
	prog, err := app.Program()
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.ScheduleUpdate(count/2, liveupdate.Config{Prog: prog, Setup: app.SetupHost}); err != nil {
		t.Fatal(err)
	}
	gen := pktgen.NewGenerator(app.Traffic)
	rep, err := sh.RunLoad(gen.Next, count, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UpdatesAttempted != 1 || rep.UpdatesCompleted != 1 {
		t.Fatalf("update attempted %d completed %d, want 1/1", rep.UpdatesAttempted, rep.UpdatesCompleted)
	}
	if rep.UpdateStage != liveupdate.StageDone.String() {
		t.Errorf("update stage %q, want done", rep.UpdateStage)
	}
	if rep.MigratedEntries == 0 {
		t.Error("swap migrated no map state")
	}
	if rep.Received != rep.Sent || rep.Lost != 0 {
		t.Errorf("update dropped traffic: received %d of %d, lost %d", rep.Received, rep.Sent, rep.Lost)
	}
	stats, _ := sh.Maps().ByName("stats")
	v, ok := stats.Lookup([]byte{1, 0, 0, 0})
	if !ok {
		t.Fatal("stats[1] missing after swap")
	}
	if got := binary.LittleEndian.Uint64(v); got != uint64(count) {
		t.Errorf("counter across swap = %d, want %d (migrated + post-swap)", got, count)
	}
}

// TestMultiQueueUpdateRollback: a failing update (its host setup
// errors) must roll back to the old replica fleet with state intact and
// keep serving every packet.
func TestMultiQueueUpdateRollback(t *testing.T) {
	const count = 1000
	app := apps.Toy()
	sh := newShell(t, app, core.Options{}, ShellConfig{Queues: 2, Sim: hwsim.Config{InputQueuePackets: 64}})
	prog, err := app.Program()
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("setup refused")
	ucfg := liveupdate.Config{Prog: prog, Setup: func(*maps.Set) error { return boom }}
	if err := sh.ScheduleUpdate(count/2, ucfg); err != nil {
		t.Fatal(err)
	}
	gen := pktgen.NewGenerator(app.Traffic)
	rep, err := sh.RunLoad(gen.Next, count, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UpdatesAttempted != 1 || rep.UpdatesRolledBack != 1 || rep.UpdatesCompleted != 0 {
		t.Fatalf("attempted %d rolled back %d completed %d, want 1/1/0",
			rep.UpdatesAttempted, rep.UpdatesRolledBack, rep.UpdatesCompleted)
	}
	if rep.UpdateStage != liveupdate.StageRolledBack.String() {
		t.Errorf("update stage %q, want rolled back", rep.UpdateStage)
	}
	if rep.UpdateFailure == "" {
		t.Error("rollback recorded no failure cause")
	}
	if rep.Received != rep.Sent {
		t.Errorf("rollback dropped traffic: %d of %d", rep.Received, rep.Sent)
	}
	// The old replica fleet keeps serving with its state: the counter
	// holds every packet of this run and goes on counting in the next.
	for run := uint64(1); run <= 2; run++ {
		stats, _ := sh.Maps().ByName("stats")
		v, ok := stats.Lookup([]byte{1, 0, 0, 0})
		if !ok {
			t.Fatal("stats[1] missing after rollback")
		}
		if got := binary.LittleEndian.Uint64(v); got != run*count {
			t.Errorf("counter after rollback, run %d = %d, want %d", run, got, run*count)
		}
		if rep, err = sh.RunLoad(gen.Next, count, 100e6); err != nil || rep.Received != count || rep.QueueCount != 2 {
			t.Fatalf("run after rollback: received %d of %d on %d queues, err %v", rep.Received, count, rep.QueueCount, err)
		}
	}
}

// flowcountSource counts packets per source IP in a small hash map the
// data plane itself populates — so a live run carries inserted state an
// update must migrate into the new banks.
const flowcountSource = `
map flows hash key=4 value=8 entries=8

r2 = *(u32 *)(r1 + 4)        ; data_end
r1 = *(u32 *)(r1 + 0)        ; data
r3 = r1
r3 += 34                     ; eth(14) + ip(20)
if r3 > r2 goto pass         ; bounds check (hardware-elided)
r4 = *(u32 *)(r1 + 26)       ; src ip (raw byte order)
*(u32 *)(r10 - 4) = r4
r1 = map[flows] ll
r2 = r10
r2 += -4
call 1                       ; bpf_map_lookup_elem
if r0 == 0 goto insert
r2 = 1
lock *(u64 *)(r0 + 0) += r2
r0 = 3                       ; XDP_TX
exit
insert:
*(u64 *)(r10 - 16) = 1
r1 = map[flows] ll
r2 = r10
r2 += -4
r3 = r10
r3 += -16
r4 = 0
call 2                       ; bpf_map_update_elem
r0 = 3
exit
pass:
r0 = 2                       ; XDP_PASS
exit
`

func flowcountApp() *apps.App {
	return &apps.App{
		Name:    "flowcount",
		Source:  flowcountSource,
		Traffic: pktgen.GeneratorConfig{Flows: 4, PacketLen: 64},
	}
}

// TestMultiQueueMigrateFullRollback forces the failure in the middle of
// the state migration itself, after the schema gate has passed: the new
// engine's host setup fills the hash map to capacity with keys no
// generated flow can collide with (the generator sources from
// 10.0.0.0/8), so the merged-state bulk copy hits a full map on its
// first live entry. The swap must roll back with the old replica fleet
// still serving and the merged map state bit-identical to a run that
// never attempted the update.
func TestMultiQueueMigrateFullRollback(t *testing.T) {
	const count = 1000
	app := flowcountApp()

	run := func(update bool) (*Shell, Report) {
		t.Helper()
		sh := newShell(t, app, core.Options{}, ShellConfig{Queues: 4, Sim: hwsim.Config{InputQueuePackets: 64}})
		if update {
			prog, err := app.Program()
			if err != nil {
				t.Fatal(err)
			}
			prefill := func(set *maps.Set) error {
				m, ok := set.ByName("flows")
				if !ok {
					return errors.New("flows map missing in new engine")
				}
				for i := 0; i < 8; i++ {
					key := []byte{0xff, 0xff, 0xff, byte(i)}
					if err := m.Update(key, make([]byte, 8), maps.UpdateAny); err != nil {
						return err
					}
				}
				return nil
			}
			ucfg := liveupdate.Config{Prog: prog, Setup: prefill}
			if err := sh.ScheduleUpdate(count/2, ucfg); err != nil {
				t.Fatal(err)
			}
		}
		gen := pktgen.NewGenerator(app.Traffic)
		rep, err := sh.RunLoad(gen.Next, count, 100e6)
		if err != nil {
			t.Fatal(err)
		}
		return sh, rep
	}

	shA, repA := run(true)
	if repA.UpdatesAttempted != 1 || repA.UpdatesRolledBack != 1 || repA.UpdatesCompleted != 0 {
		t.Fatalf("attempted %d rolled back %d completed %d, want 1/1/0",
			repA.UpdatesAttempted, repA.UpdatesRolledBack, repA.UpdatesCompleted)
	}
	if repA.UpdateStage != liveupdate.StageRolledBack.String() {
		t.Errorf("update stage %q, want rolled back", repA.UpdateStage)
	}
	if repA.UpdateFailure == "" {
		t.Error("mid-migration rollback recorded no failure cause")
	}
	if repA.QueueCount != 4 || len(repA.PerQueue) != 4 {
		t.Errorf("rollback did not keep a 4-replica engine serving: %d queues, %d rows", repA.QueueCount, len(repA.PerQueue))
	}
	if repA.Received != repA.Sent || repA.Lost != 0 {
		t.Errorf("rollback dropped traffic: received %d of %d, lost %d",
			repA.Received, repA.Sent, repA.Lost)
	}

	// The books after the failed update are bit-identical to a run that
	// never scheduled one: migration writes only touched the discarded
	// new banks, never the serving state.
	shB, repB := run(false)
	if repA.Received != repB.Received {
		t.Errorf("rollback run received %d, clean run %d", repA.Received, repB.Received)
	}
	if err := conformance.CompareMaps(shB.Maps(), shA.Maps()); err != nil {
		t.Errorf("merged map state diverged from the no-update run: %v", err)
	}
	// The prefill keys must not have leaked into the serving state.
	flows, ok := shA.Maps().ByName("flows")
	if !ok {
		t.Fatal("flows map missing after rollback")
	}
	if _, found := flows.Lookup([]byte{0xff, 0xff, 0xff, 0}); found {
		t.Error("a discarded new-bank key leaked into the serving map")
	}
	if flows.Len() != 4 {
		t.Errorf("serving map holds %d flows, want the generator's 4", flows.Len())
	}
}

// TestMultiQueueChaos runs the shell-side fault classes through the
// dispatcher: damaged frames take the queue-0 fallback, overflow bursts
// pile onto shared arrival cycles, and the books still balance.
func TestMultiQueueChaos(t *testing.T) {
	const count = 1500
	cfg := ShellConfig{
		Queues: 4,
		Faults: faults.Config{Seed: 7, MalformRate: 0.05, OverflowRate: 0.01, OverflowBurstLen: 8},
		Sim:    hwsim.Config{InputQueuePackets: 64},
	}
	sh := newShell(t, apps.Toy(), core.Options{}, cfg)
	gen := pktgen.NewGenerator(apps.Toy().Traffic)
	rep, err := sh.RunLoad(gen.Next, count, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MalformedSent == 0 {
		t.Error("chaos profile injected no malformed frames")
	}
	if rep.OverflowBursts == 0 || rep.Sent <= count {
		t.Errorf("no overflow bursts landed: %d bursts, %d sent", rep.OverflowBursts, rep.Sent)
	}
	if rep.SteerFallbacks == 0 {
		t.Error("no damaged frame took the queue-0 fallback")
	}
	// Malformed frames still complete (the hardware forces a drop
	// verdict), so they sit inside Received, not next to it.
	if got := rep.Received + rep.Lost; got != rep.Sent {
		t.Errorf("accounting: %d received + %d lost != %d sent", rep.Received, rep.Lost, rep.Sent)
	}
	if rep.MalformedDropped == 0 {
		t.Error("no malformed frame was bounds-checked into a drop")
	}
}

// TestMultiQueueSwapEngineErrorKeepsReport: when the quiesce drain of a
// scheduled update finds a replica dead, RunLoad returns the engine's
// error — not an UpdateError, nothing was rolled back — and the report
// still holds what retired before it. A hair-trigger watchdog under
// protection turns every frame into one recovery that retires it as
// aborted — arrivals are a hundred cycles apart and the trigger is early
// enough that the doubling recovery backoff stays far below that, so
// each frame is alone in its replica — and the recovery budget is sized
// so the busier replica spends its last attempt on the last frame
// steered to it before the barrier: every offered frame is on the books
// when the error surfaces.
func TestMultiQueueSwapEngineErrorKeepsReport(t *testing.T) {
	const count, after = 32, 8
	app := apps.Toy()
	frames := pktgen.NewGenerator(app.Traffic).Batch(count)
	d, err := rss.NewDispatcher(rss.DispatcherConfig{Queues: 2})
	if err != nil {
		t.Fatal(err)
	}
	var steered [2]int
	for _, f := range frames[:after] {
		steered[d.Offer(f)]++
	}
	sh := newShell(t, app, core.Options{}, ShellConfig{Queues: 2, Sim: hwsim.Config{
		InputQueuePackets:     64,
		Protection:            protect.LevelECC,
		WatchdogCycles:        2,
		MaxRecoveries:         max(steered[0], steered[1]) - 1,
		RecoveryBackoffCycles: 1,
		ScrubCyclesPerWord:    1 << 20, // no clean scrub pass refills the budget
	}})
	prog, err := app.Program()
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.ScheduleUpdate(after, liveupdate.Config{Prog: prog, Setup: app.SetupHost}); err != nil {
		t.Fatal(err)
	}
	i := 0
	rep, err := sh.RunLoad(func() []byte { i++; return frames[i-1] }, count, 2.5e6)
	if !errors.Is(err, hwsim.ErrRecoveryExhausted) {
		t.Fatalf("RunLoad = %v, want the replica's exhausted recovery budget", err)
	}
	if rep.UpdatesAttempted != 1 || rep.UpdatesCompleted != 0 || rep.UpdatesRolledBack != 0 {
		t.Errorf("update attempted %d completed %d rolled back %d, want 1/0/0",
			rep.UpdatesAttempted, rep.UpdatesCompleted, rep.UpdatesRolledBack)
	}
	if rep.Sent != after || rep.Received == 0 || !rep.Accounted() {
		t.Errorf("report lost the frames retired before the error: sent %d received %d lost %d",
			rep.Sent, rep.Received, rep.Lost)
	}
	if rep.Recoveries == 0 || rep.RecoveryAborted != rep.Received {
		t.Errorf("%d recoveries aborted %d frames, %d received: the error path is not the one intended",
			rep.Recoveries, rep.RecoveryAborted, rep.Received)
	}
}

// TestMultiQueueCompletedMetric: rss.q<i>.completed is published from
// each replica's counter window when a session drains, so it equals the
// report's per-queue Received, sums to Received, and accumulates over
// RunLoads on the same shell.
func TestMultiQueueCompletedMetric(t *testing.T) {
	const count = 1500
	reg := obs.NewRegistry()
	sh := newShell(t, apps.Toy(), core.Options{}, ShellConfig{Queues: 4,
		Sim: hwsim.Config{InputQueuePackets: 64, Metrics: reg}})
	gen := pktgen.NewGenerator(apps.Toy().Traffic)
	var total [4]uint64
	for run := 1; run <= 2; run++ {
		rep, err := sh.RunLoad(gen.Next, count, 100e6)
		if err != nil {
			t.Fatal(err)
		}
		var sum uint64
		for q, qr := range rep.PerQueue {
			total[q] += qr.Received
			got, ok := reg.CounterValue(rss.MetricCompleted(q))
			if !ok || got != total[q] {
				t.Errorf("run %d: %s = %d (%v), want %d", run, rss.MetricCompleted(q), got, ok, total[q])
			}
			sum += qr.Received
		}
		if sum != rep.Received || rep.Received != count {
			t.Errorf("run %d: per-queue received sums to %d, report says %d of %d", run, sum, rep.Received, count)
		}
	}
}

// TestMultiQueueUpdateGoroutineLifetime: a RunLoad that swaps the
// replica fleet mid-run — and one that rolls the swap back — ends with
// every goroutine of every session it opened gone.
func TestMultiQueueUpdateGoroutineLifetime(t *testing.T) {
	const count = 600
	app := apps.Toy()
	prog, err := app.Program()
	if err != nil {
		t.Fatal(err)
	}
	sh := newShell(t, app, core.Options{}, ShellConfig{Queues: 4, Sim: hwsim.Config{InputQueuePackets: 64}})
	gen := pktgen.NewGenerator(app.Traffic)
	base := runtime.NumGoroutine()
	for run, setup := range []func(*maps.Set) error{
		app.SetupHost,
		func(*maps.Set) error { return errors.New("setup refused") },
		nil,
	} {
		if err := sh.ScheduleUpdate(count/2, liveupdate.Config{Prog: prog, Setup: setup}); err != nil {
			t.Fatal(err)
		}
		rep, err := sh.RunLoad(gen.Next, count, 100e6)
		if err != nil || rep.Received != count {
			t.Fatalf("run %d: received %d of %d, err %v", run, rep.Received, count, err)
		}
		if want := uint64(run % 2); rep.UpdatesRolledBack != want || rep.UpdatesCompleted != 1-want {
			t.Fatalf("run %d: completed %d rolled back %d", run, rep.UpdatesCompleted, rep.UpdatesRolledBack)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("run %d: %d goroutines alive, %d before: a session leaked", run, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
