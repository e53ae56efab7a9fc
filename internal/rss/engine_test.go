package rss

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"ehdl/internal/apps"
	"ehdl/internal/core"
	"ehdl/internal/ebpf"
	"ehdl/internal/hwsim"
	"ehdl/internal/maps"
	"ehdl/internal/pktgen"
	"ehdl/internal/protect"
)

func compileApp(t testing.TB, name string) *core.Pipeline {
	t.Helper()
	app, ok := apps.ByName(name)
	if !ok {
		t.Fatalf("unknown app %q", name)
	}
	prog, err := app.Program()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.Compile(prog, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func setupApp(t testing.TB, name string, set *maps.Set) {
	t.Helper()
	app, _ := apps.ByName(name)
	if app.SetupHost != nil {
		if err := app.SetupHost(set); err != nil {
			t.Fatal(err)
		}
	}
}

// runEngine pushes count generated packets through an engine and
// drains it.
func runEngine(t testing.TB, e *Engine, gcfg pktgen.GeneratorConfig, count int) RunStats {
	t.Helper()
	if err := e.Start(1, nil); err != nil {
		t.Fatal(err)
	}
	gen := pktgen.NewGenerator(gcfg)
	for i := 0; i < count; i++ {
		e.Offer(gen.Next())
	}
	rs, err := e.Drain()
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestClassifyMapPerApp(t *testing.T) {
	cases := []struct {
		app  string
		want map[string]core.Sharing
	}{
		{"toy", map[string]core.Sharing{"stats": core.SharingCounter}},
		{"firewall", map[string]core.Sharing{"conn": core.SharingFlow, "fwstats": core.SharingCounter}},
		{"router", map[string]core.Sharing{"routes": core.SharingShared, "rtstats": core.SharingCounter}},
		{"loadbalancer", map[string]core.Sharing{"vips": core.SharingShared, "backends": core.SharingShared}},
	}
	for _, c := range cases {
		pl := compileApp(t, c.app)
		for id, spec := range pl.Prog.Maps {
			want, ok := c.want[spec.Name]
			if !ok {
				continue
			}
			if got := pl.MapBlockFor(id).Sharing(); got != want {
				t.Errorf("%s/%s: classified %v, want %v", c.app, spec.Name, got, want)
			}
		}
	}
}

// TestCounterMergeEqualsTotal drives the toy app (one global counter
// bumped per packet) across queue counts: the merged counter must equal
// the packet count regardless of how flows spread.
func TestCounterMergeEqualsTotal(t *testing.T) {
	const packets = 600
	gcfg := pktgen.GeneratorConfig{Flows: 32, PacketLen: 64, Seed: 11}
	for _, queues := range []int{1, 2, 4, 8} {
		pl := compileApp(t, "toy")
		e, err := NewEngine(pl, Config{Queues: queues})
		if err != nil {
			t.Fatal(err)
		}
		setupApp(t, "toy", e.HostMaps())
		rs := runEngine(t, e, gcfg, packets)

		var completed uint64
		for _, qs := range rs.PerQueue {
			completed += qs.Stats.Completed
		}
		if completed != packets {
			t.Fatalf("%d queues: completed %d of %d", queues, completed, packets)
		}
		stats, ok := e.HostMaps().ByName("stats")
		if !ok {
			t.Fatal("no stats map")
		}
		// Generated traffic is IPv4: toy bumps stats[1] (ETH_P_IP).
		key := []byte{1, 0, 0, 0}
		v, ok := stats.Lookup(key)
		if !ok {
			t.Fatalf("%d queues: stats[1] missing", queues)
		}
		if got := binary.LittleEndian.Uint64(v); got != packets {
			t.Fatalf("%d queues: merged counter %d, want %d", queues, got, packets)
		}
		if rs.MergeConflicts != 0 {
			t.Fatalf("%d queues: %d merge conflicts", queues, rs.MergeConflicts)
		}
	}
}

// TestEngineDeterminism runs the same traffic twice at 4 queues: the
// per-queue statistics and the merged map state must be bit-identical,
// independent of host goroutine scheduling.
func TestEngineDeterminism(t *testing.T) {
	const packets = 800
	gcfg := pktgen.GeneratorConfig{Flows: 48, PacketLen: 64, Seed: 3}
	run := func() (RunStats, *maps.SetSnapshot) {
		pl := compileApp(t, "firewall")
		e, err := NewEngine(pl, Config{Queues: 4})
		if err != nil {
			t.Fatal(err)
		}
		setupApp(t, "firewall", e.HostMaps())
		rs := runEngine(t, e, gcfg, packets)
		snap := e.HostMaps().Snapshot()
		return rs, snap
	}
	rs1, snap1 := run()
	rs2, snap2 := run()
	if !reflect.DeepEqual(rs1.PerQueue, rs2.PerQueue) {
		t.Fatalf("per-queue stats diverged:\n%+v\n%+v", rs1.PerQueue, rs2.PerQueue)
	}
	if !snap1.Equal(snap2) {
		t.Fatal("merged map state diverged between identical runs")
	}
}

// TestSharedMapStaysSingle checks read-only maps are not banked: a
// host write after setup is visible to every replica without a merge.
func TestSharedMapStaysSingle(t *testing.T) {
	pl := compileApp(t, "router")
	e, err := NewEngine(pl, Config{Queues: 4})
	if err != nil {
		t.Fatal(err)
	}
	for id, spec := range pl.Prog.Maps {
		if spec.Name != "routes" {
			continue
		}
		if e.sharing[id] != core.SharingShared {
			t.Fatalf("routes classified %v, want shared", e.sharing[id])
		}
		host, _ := e.HostMaps().ByName("routes")
		for q := 0; q < e.Queues(); q++ {
			rm, _ := e.ReplicaCore(q).Maps().ByName("routes")
			if rm != host {
				t.Fatalf("queue %d does not share the routes instance", q)
			}
		}
	}
}

// TestBankedBroadcastAndMerge exercises the banked map host contract
// directly: pre-seal writes land in every bank, post-seal reads merge.
func TestBankedBroadcastAndMerge(t *testing.T) {
	spec := ebpf.MapSpec{Name: "ctr", Kind: ebpf.MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 4}
	b, err := newBanked(spec, core.SharingCounter, 3)
	if err != nil {
		t.Fatal(err)
	}
	key := make([]byte, 4)
	seed := make([]byte, 8)
	binary.LittleEndian.PutUint64(seed, 100)
	if err := b.Update(key, seed, maps.UpdateAny); err != nil {
		t.Fatal(err)
	}
	b.seal()

	// Each bank adds its own delta the way replica atomics would.
	for q, delta := range []uint64{5, 7, 11} {
		v, ok := b.bank(q).Lookup(key)
		if !ok {
			t.Fatalf("bank %d missing broadcast key", q)
		}
		binary.LittleEndian.PutUint64(v, 100+delta)
	}
	got, ok := b.Lookup(key)
	if !ok {
		t.Fatal("merged key missing")
	}
	if n := binary.LittleEndian.Uint64(got); n != 100+5+7+11 {
		t.Fatalf("counter merge = %d, want %d", n, 100+5+7+11)
	}
}

func TestBankedUnionMerge(t *testing.T) {
	spec := ebpf.MapSpec{Name: "conn", Kind: ebpf.MapHash, KeySize: 4, ValueSize: 4, MaxEntries: 16}
	b, err := newBanked(spec, core.SharingFlow, 2)
	if err != nil {
		t.Fatal(err)
	}
	k1 := []byte{1, 0, 0, 0}
	k2 := []byte{2, 0, 0, 0}
	k3 := []byte{3, 0, 0, 0}
	if err := b.Update(k1, []byte{9, 9, 9, 9}, maps.UpdateAny); err != nil {
		t.Fatal(err)
	}
	b.seal()

	// Bank 0 creates k2; bank 1 rewrites k1; nothing touches k3.
	if err := b.bank(0).Update(k2, []byte{2, 2, 2, 2}, maps.UpdateAny); err != nil {
		t.Fatal(err)
	}
	if err := b.bank(1).Update(k1, []byte{7, 7, 7, 7}, maps.UpdateAny); err != nil {
		t.Fatal(err)
	}

	if v, ok := b.Lookup(k1); !ok || v[0] != 7 {
		t.Fatalf("k1 merged %v %v, want rewrite from bank 1", v, ok)
	}
	if v, ok := b.Lookup(k2); !ok || v[0] != 2 {
		t.Fatalf("k2 merged %v %v, want creation from bank 0", v, ok)
	}
	if _, ok := b.Lookup(k3); ok {
		t.Fatal("k3 should be absent")
	}
	if b.Len() != 2 {
		t.Fatalf("merged Len = %d, want 2", b.Len())
	}

	// A bank deleting a baseline key removes it from the merged view.
	if err := b.bank(0).Delete(k1); err != nil {
		t.Fatal(err)
	}
	// Now k1 changed in both banks: deterministic lowest-queue-wins and
	// a conflict is recorded.
	if _, ok := b.Lookup(k1); ok {
		t.Fatal("k1 should follow bank 0's delete (lowest queue wins)")
	}
	if b.Conflicts() == 0 {
		t.Fatal("cross-bank mutation should count a conflict")
	}
}

// TestEngineRestart checks Start/Drain/Start reuse (the live-update
// swap path restarts sessions on retained state).
func TestEngineRestart(t *testing.T) {
	pl := compileApp(t, "toy")
	e, err := NewEngine(pl, Config{Queues: 2})
	if err != nil {
		t.Fatal(err)
	}
	setupApp(t, "toy", e.HostMaps())
	gcfg := pktgen.GeneratorConfig{Flows: 8, PacketLen: 64, Seed: 5}
	runEngine(t, e, gcfg, 100)
	runEngine(t, e, gcfg, 100)
	stats, _ := e.HostMaps().ByName("stats")
	v, ok := stats.Lookup([]byte{1, 0, 0, 0})
	if !ok {
		t.Fatal("stats[1] missing")
	}
	if got := binary.LittleEndian.Uint64(v); got != 200 {
		t.Fatalf("two sessions merged %d, want 200", got)
	}
}

// engineGoroutines counts the live goroutines an Engine.Start launched,
// read off the runtime's own stack dump so goroutines of other tests
// winding down cannot blur the figure.
func engineGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte("created by ehdl/internal/rss.(*Engine).Start"))
}

// goroutinesSettleTo waits for the goroutine count to come back to base:
// Drain joins the workers on their WaitGroup, which they signal a few
// instructions before their goroutines are gone.
func goroutinesSettleTo(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive, %d before the sessions: a session leaked", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEngineGoroutineLifetime: between Start and Drain the engine owns
// exactly one goroutine per replica — with or without a consumer — and
// after Drain none, session after session.
func TestEngineGoroutineLifetime(t *testing.T) {
	const queues = 4
	e, err := NewEngine(compileApp(t, "toy"), Config{Queues: queues})
	if err != nil {
		t.Fatal(err)
	}
	setupApp(t, "toy", e.HostMaps())
	gen := pktgen.NewGenerator(pktgen.GeneratorConfig{Flows: 32, PacketLen: 64, Seed: 9})
	for deadline := time.Now().Add(5 * time.Second); engineGoroutines() > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond) // an earlier test's workers, joined but not yet gone
	}
	base := runtime.NumGoroutine()
	for session := 0; session < 6; session++ {
		var retired [queues]int // one slot per worker goroutine
		var consumer func(Completion)
		if session%2 == 1 {
			consumer = func(c Completion) { retired[c.Queue]++ }
		}
		if err := e.Start(1, consumer); err != nil {
			t.Fatal(err)
		}
		if got := engineGoroutines(); got != queues {
			t.Fatalf("session %d: the engine runs %d goroutines, want one per replica (%d)", session, got, queues)
		}
		for i := 0; i < 500; i++ {
			e.Offer(gen.Next())
		}
		rs, err := e.Drain()
		if err != nil {
			t.Fatal(err)
		}
		goroutinesSettleTo(t, base)
		if consumer == nil {
			continue
		}
		for q, n := range retired {
			if uint64(n) != rs.PerQueue[q].Stats.Completed {
				t.Errorf("session %d queue %d: consumer saw %d retirements, counters say %d", session, q, n, rs.PerQueue[q].Stats.Completed)
			}
		}
	}
}

// TestEngineReplicaErrorKeepsDispatcherFree kills every replica early in
// a session (a hair-trigger watchdog under protection spends a recovery
// budget of one on the first two frames) and keeps offering far more
// than the sinks buffer: the dead workers must go on emptying their
// channels, Drain must report the typed error, the frames that retired
// before it must stay on the books, and the next session on the same
// engine must start from a clean goroutine count.
func TestEngineReplicaErrorKeepsDispatcherFree(t *testing.T) {
	e, err := NewEngine(compileApp(t, "toy"), Config{Queues: 2, Batch: 8, Sim: hwsim.Config{
		Protection:            protect.LevelECC,
		WatchdogCycles:        2,
		MaxRecoveries:         1,
		RecoveryBackoffCycles: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	setupApp(t, "toy", e.HostMaps())
	gen := pktgen.NewGenerator(pktgen.GeneratorConfig{Flows: 32, PacketLen: 64, Seed: 9})
	base := runtime.NumGoroutine()
	for session := 0; session < 3; session++ {
		if err := e.Start(16, nil); err != nil {
			t.Fatal(err)
		}
		offered := make(chan struct{})
		go func() {
			defer close(offered)
			for i := 0; i < 4000; i++ { // the sinks hold 2 x 4 x 8 frames
				e.Offer(gen.Next())
			}
		}()
		select {
		case <-offered:
		case <-time.After(30 * time.Second):
			t.Fatal("dispatcher blocked behind a dead replica")
		}
		rs, err := e.Drain()
		if !errors.Is(err, hwsim.ErrRecoveryExhausted) {
			t.Fatalf("session %d: Drain = %v, want the replica's exhausted recovery budget", session, err)
		}
		if rs.Arrivals != 4000 {
			t.Errorf("session %d: %d arrivals on the books, want 4000", session, rs.Arrivals)
		}
		if retired := rs.PerQueue[0].Stats.Completed + rs.PerQueue[1].Stats.Completed; retired == 0 {
			t.Errorf("session %d: the frames aborted by the recoveries before the error are off the books", session)
		}
		goroutinesSettleTo(t, base)
	}
}
