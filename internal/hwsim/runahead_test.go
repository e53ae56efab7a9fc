package hwsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/core"
	"ehdl/internal/ddg"
	"ehdl/internal/ebpf"
	"ehdl/internal/faults"
	"ehdl/internal/maps"
	"ehdl/internal/obs"
	"ehdl/internal/pktgen"
	"ehdl/internal/vm"
)

// tableRun is everything a run shows the outside: per-packet results in
// retirement order, the counters after drain, and the map memory.
type tableRun struct {
	results []Result
	stats   Stats
	maps    string
}

// driveTables offers frames[i] followed by gaps[i] clock cycles, drains,
// and returns what the run looked like from outside.
func driveTables(t *testing.T, pl *core.Pipeline, setup func(*maps.Set) error, cfg Config, frames [][]byte, gaps []int) tableRun {
	t.Helper()
	sim, err := New(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		if err := setup(sim.Maps()); err != nil {
			t.Fatal(err)
		}
	}
	sim.KeepData(true)
	var out tableRun
	sim.OnComplete(func(r Result) { out.results = append(out.results, r) })
	for i, f := range frames {
		sim.Inject(f)
		for c := 0; c < gaps[i]; c++ {
			if err := sim.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sim.RunToCompletion(1 << 22); err != nil {
		t.Fatal(err)
	}
	out.stats = sim.Stats()
	out.maps = dumpMaps(sim.Maps())
	return out
}

// dumpMaps renders map memory in a canonical order.
func dumpMaps(set *maps.Set) string {
	var dump []string
	for id := 0; id < set.Len(); id++ {
		m, _ := set.ByID(id)
		m.Iterate(func(k, v []byte) bool {
			dump = append(dump, fmt.Sprintf("%d %x %x", id, k, v))
			return true
		})
	}
	sort.Strings(dump)
	return strings.Join(dump, "\n")
}

// compareTables drives the same traffic through the default tables and
// through a Sim that visits every stage — a tracer's, which only
// observes — and fails on any difference visible from outside. It
// returns the default run.
func compareTables(t *testing.T, pl *core.Pipeline, setup func(*maps.Set) error, cfg Config, frames [][]byte, gaps []int) tableRun {
	t.Helper()
	ahead := driveTables(t, pl, setup, cfg, frames, gaps)
	traced := cfg
	traced.Trace = obs.NewTracer(16)
	all := driveTables(t, pl, setup, traced, frames, gaps)
	if len(ahead.results) != len(frames) || len(all.results) != len(frames) {
		t.Fatalf("retired %d (run-ahead) and %d (visit-all) of %d frames", len(ahead.results), len(all.results), len(frames))
	}
	for i := range all.results {
		a, b := ahead.results[i], all.results[i]
		if a.Seq != b.Seq || a.Action != b.Action || a.RedirectIfindex != b.RedirectIfindex ||
			a.LatencyCycles != b.LatencyCycles || a.Flushed != b.Flushed || !bytes.Equal(a.Data, b.Data) {
			t.Fatalf("retirement %d: run-ahead %+v, visit-all %+v", i, a, b)
		}
	}
	if !reflect.DeepEqual(ahead.stats, all.stats) {
		t.Fatalf("stats after drain:\nrun-ahead %+v\nvisit-all %+v", ahead.stats, all.stats)
	}
	if ahead.maps != all.maps {
		t.Fatal("map contents differ between the two tables")
	}
	compareBurst(t, pl, setup, cfg, frames, ahead)
	return ahead
}

// compareBurst is the third column: the same frames one after another
// through the one-burst hazard-free table, which must leave what the
// pipelined run left — every packet's verdict, redirect and bytes, the
// map memory and, when nothing was flushed (a replayed runt faults, and
// is counted, again), the malformed-drop count. A Burst has no clock, so
// a program that reads it (the pipelined runs saw the cycle count) is
// left out.
func compareBurst(t *testing.T, pl *core.Pipeline, setup func(*maps.Set) error, cfg Config, frames [][]byte, want tableRun) {
	t.Helper()
	env, err := vm.NewEnv(pl.Transformed)
	if err != nil {
		t.Fatal(err)
	}
	readClock := false
	env.Now = func() uint64 { readClock = true; return 0 }
	b, err := NewBurst(pl, cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		if err := setup(env.Maps); err != nil {
			t.Fatal(err)
		}
	}
	type verdict struct {
		action   ebpf.XDPAction
		redirect uint32
		data     []byte
	}
	got, faults := make([]verdict, len(frames)), uint64(0)
	for i, f := range frames {
		run, err := b.Run(f)
		if err != nil {
			t.Fatalf("one-burst frame %d: %v", i, err)
		}
		got[i] = verdict{run.Action, run.Redirect, append([]byte(nil), run.State.Pkt.Bytes()...)}
		faults += run.Faults
	}
	if readClock {
		return
	}
	for _, r := range want.results {
		if g := got[r.Seq]; g.action != r.Action || g.redirect != r.RedirectIfindex || !bytes.Equal(g.data, r.Data) {
			t.Fatalf("packet %d: one-burst %v/%d/%x, pipelined %v/%d/%x", r.Seq, g.action, g.redirect, g.data, r.Action, r.RedirectIfindex, r.Data)
		}
	}
	if want.stats.Flushes == 0 && faults != want.stats.MalformedDropped {
		t.Fatalf("one-burst counted %d malformed drops, pipelined %d", faults, want.stats.MalformedDropped)
	}
	if m := dumpMaps(env.Maps); m != want.maps {
		t.Fatal("map contents differ between the one-burst and the pipelined table")
	}
}

// hostileTraffic is app traffic with one frame in four cut to 14–44
// bytes — the hardware bounds check fires at whatever depth each program
// first reaches past the cut — offered at an irregular 1–3 cycles a frame.
func hostileTraffic(traffic pktgen.GeneratorConfig, n int) ([][]byte, []int) {
	frames := pktgen.NewGenerator(traffic).Batch(n)
	r := rand.New(rand.NewSource(traffic.Seed + 99))
	gaps := make([]int, n)
	for i := range frames {
		if r.Intn(4) == 0 {
			frames[i] = frames[i][:14+r.Intn(31)]
		}
		gaps[i] = 1 + r.Intn(3)
	}
	return frames, gaps
}

// tableApps are the pipelines both table tests walk: the evaluation
// apps plus the two whose per-frame read-modify-write makes flushes.
func tableApps() []*apps.App { return append(apps.All(), apps.Toy(), apps.LeakyBucket()) }

// TestRunAheadMatchesVisitAll proves the two execution tables
// indistinguishable from outside: a packet that ran its private stages
// ahead of the clock retires on the same cycle with the same verdict,
// bytes and flush count as one executed stage by stage, and leaves the
// same counters and map memory behind.
func TestRunAheadMatchesVisitAll(t *testing.T) {
	loads := []struct {
		name  string
		flows int
		dist  pktgen.Distribution
	}{
		{"uniform", 512, pktgen.Uniform},
		{"zipf", 256, pktgen.Zipf},
		{"storm", 4, pktgen.Uniform},
	}
	frames := 1200
	if testing.Short() {
		frames = 300
	}
	var flushes, malformed uint64
	for _, app := range tableApps() {
		prog, err := app.Program()
		if err != nil {
			t.Fatal(err)
		}
		pl, err := core.Compile(prog, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, policy := range []HazardPolicy{PolicyFlush, PolicyStall} {
			for _, l := range loads {
				t.Run(fmt.Sprintf("%s/policy%d/%s", app.Name, policy, l.name), func(t *testing.T) {
					traffic := app.Traffic
					traffic.Flows, traffic.Distribution, traffic.Seed = l.flows, l.dist, 5
					pkts, gaps := hostileTraffic(traffic, frames)
					run := compareTables(t, pl, app.Setup, Config{Policy: policy}, pkts, gaps)
					flushes += run.stats.Flushes
					malformed += run.stats.MalformedDropped
				})
			}
		}
	}
	if flushes == 0 || malformed == 0 {
		t.Errorf("%d flushes and %d malformed drops over the whole matrix: the recall and fault paths went unexercised", flushes, malformed)
	}
}

// aheadFaultSource reads a per-flow entry, then — in a stage of its own
// between the map read and the map write — loads a packet byte short
// frames do not have, and writes the entry back without an atomic, so
// the Flush Evaluation Block recalls younger same-flow packets.
const aheadFaultSource = `
map st array key=4 value=8 entries=4

r7 = *(u32 *)(r1 + 0)
*(u32 *)(r10 - 4) = 0
r1 = map[st] ll
r2 = r10
r2 += -4
call 1
if r0 == 0 goto out
r4 = *(u64 *)(r0 + 0)
if r4 == 123456789 goto out
r5 = *(u8 *)(r7 + 60)
r4 += r5
r4 += 1
*(u64 *)(r0 + 0) = r4
out:
r0 = 2
exit
`

// TestRunAheadRecalledAfterFault pins the one shared effect of a private
// op: a short frame's deep load faults in a burst, is counted before the
// packet stands at that stage, and the packet is then recalled by an
// older packet's write. The stage-by-stage pipeline never made that
// count, so it must be taken back.
func TestRunAheadRecalledAfterFault(t *testing.T) {
	pl := compile(t, "aheadfault", aheadFaultSource, core.Options{})
	sim, err := New(pl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	deep := -1
	for i := range sim.ops {
		if op := &sim.ops[i]; op.Kind == core.OpLoad && op.Access != nil && op.Access.Area == ddg.AreaPacket && op.Access.Off == 60 {
			deep = op.stage
		}
	}
	mb := &pl.Maps[0]
	if deep < 0 || hasBit(sim.visit, deep) || !mb.NeedsFlush || len(mb.ReadStages) == 0 || len(mb.WriteStages) == 0 ||
		deep <= mb.ReadStages[0] || deep >= mb.WriteStages[0] {
		t.Fatalf("deep load at stage %d, map block %+v: the program no longer puts a private fault between read and write", deep, *mb)
	}

	r := rand.New(rand.NewSource(11))
	const n = 600
	frames, gaps := make([][]byte, n), make([]int, n)
	for i := range frames {
		frames[i] = make([]byte, 64)
		r.Read(frames[i])
		if r.Intn(3) == 0 {
			frames[i] = frames[i][:14+r.Intn(31)]
		}
		gaps[i] = 1 + r.Intn(3)
	}
	run := compareTables(t, pl, nil, Config{}, frames, gaps)
	recalledShort := 0
	for _, res := range run.results {
		if res.Flushed > 0 && len(frames[res.Seq]) < 61 {
			recalledShort++
		}
	}
	if recalledShort == 0 || run.stats.MalformedDropped == 0 {
		t.Fatalf("%d short frames recalled, %d malformed drops: the take-back went unexercised", recalledShort, run.stats.MalformedDropped)
	}
}

// TestVisitTable checks the line the execute loop walks along: nothing
// another packet can observe sits in an unvisited stage, bursts end
// where the next visited stage begins, and whatever looks at or strikes
// per-stage state gets the table that visits everything.
func TestVisitTable(t *testing.T) {
	for _, app := range tableApps() {
		prog, err := app.Program()
		if err != nil {
			t.Fatal(err)
		}
		pl, err := core.Compile(prog, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		n := len(pl.Stages)
		s, err := New(pl, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !hasBit(s.visit, 0) {
			t.Errorf("%s: stage 0 is not visited", app.Name)
		}
		unvisited := 0
		for st := 0; st < n; st++ {
			if hasBit(s.visit, st) {
				next := st + 1
				for next < n && !hasBit(s.visit, next) {
					next++
				}
				if s.burstEnd[st] != next-1 {
					t.Errorf("%s: burst of stage %d ends at %d, next visited stage is %d", app.Name, st, s.burstEnd[st], next)
				}
				continue
			}
			unvisited++
			if s.elasticStage[st] {
				t.Errorf("%s: elastic stage %d is not visited", app.Name, st)
			}
			for i := range pl.Stages[st].Ops {
				op := &pl.Stages[st].Ops[i]
				mem := op.Kind == core.OpLoad || op.Kind == core.OpStore
				if op.Kind == core.OpMapCall || op.Kind == core.OpHelper || op.Kind == core.OpAtomic ||
					mem && (op.Access == nil || op.Access.Area == ddg.AreaMap || op.Access.Area == ddg.AreaNone) {
					t.Errorf("%s: unvisited stage %d holds shared op %s", app.Name, st, op.Ins)
				}
			}
		}
		if unvisited == 0 {
			t.Errorf("%s: every stage is visited: the default table has no bursts", app.Name)
		}
		for name, cfg := range map[string]Config{
			"faults": {Faults: faults.New(faults.Single(faults.SEURegister, 0.01, 1))},
			"trace":  {Trace: obs.NewTracer(16)},
			"meter":  {Metrics: obs.NewRegistry()},
		} {
			s, err := New(pl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for st := 0; st < n; st++ {
				if !hasBit(s.visit, st) || s.burstEnd[st] != st {
					t.Errorf("%s/%s: stage %d visited %v, burst to %d: want every stage visited and every burst empty",
						app.Name, name, st, hasBit(s.visit, st), s.burstEnd[st])
				}
			}
		}
	}
}
