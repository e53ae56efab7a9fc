package fastpath_test

import (
	"cmp"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/asm"
	"ehdl/internal/conformance"
	"ehdl/internal/core"
	"ehdl/internal/ebpf"
	"ehdl/internal/fastpath"
	"ehdl/internal/faults"
	"ehdl/internal/hwsim"
	"ehdl/internal/maps"
	"ehdl/internal/obs"
	"ehdl/internal/pktgen"
	"ehdl/internal/protect"
	"ehdl/internal/vm"
)

// verdict is the externally visible outcome of one packet.
type verdict struct {
	seq      uint64
	action   ebpf.XDPAction
	redirect uint32
	data     string
}

func compilePipeline(t *testing.T, name, src string) *core.Pipeline {
	t.Helper()
	prog, err := asm.Assemble(name, src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	pl, err := core.Compile(prog, core.Options{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return pl
}

// runDiff drives the same batch through the compiled machine and the
// cycle-accurate interpreter and demands the verdict stream, the final
// map state and the packet ledger agree exactly. With timing true the
// cycle counters must match too (only valid for hazard-free designs:
// the fast path never models flush or stall cycles).
func runDiff(t *testing.T, pl *core.Pipeline, setup func(*fastpath.Machine) error, batch [][]byte, keepData, timing bool) (hwsim.Stats, hwsim.Stats) {
	t.Helper()
	m, err := fastpath.New(pl, hwsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := hwsim.New(pl, hwsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		if err := setup(m); err != nil {
			t.Fatal(err)
		}
	}
	var fastOut, simOut []verdict
	m.SetClock(func() uint64 { return 0 })
	s.SetClock(func() uint64 { return 0 })
	m.KeepData(keepData)
	s.KeepData(keepData)
	m.OnComplete(func(r hwsim.Result) {
		fastOut = append(fastOut, verdict{r.Seq, r.Action, r.RedirectIfindex, string(r.Data)})
	})
	s.OnComplete(func(r hwsim.Result) {
		simOut = append(simOut, verdict{r.Seq, r.Action, r.RedirectIfindex, string(r.Data)})
	})
	for _, p := range batch {
		fa := m.Inject(p)
		sa := s.Inject(p)
		if fa != sa {
			t.Fatalf("inject acceptance diverged: fast %v, interp %v", fa, sa)
		}
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.RunToCompletion(1 << 22); err != nil {
		t.Fatal(err)
	}
	if err := s.RunToCompletion(1 << 22); err != nil {
		t.Fatal(err)
	}
	if len(fastOut) != len(simOut) {
		t.Fatalf("completions: fast %d, interp %d", len(fastOut), len(simOut))
	}
	for i := range fastOut {
		if fastOut[i] != simOut[i] {
			t.Fatalf("packet %d: fast %+v, interp %+v", i, fastOut[i], simOut[i])
		}
	}
	if err := conformance.CompareMaps(s.Maps(), m.Maps()); err != nil {
		t.Fatal(err)
	}
	fs, ss := m.Stats(), s.Stats()
	if fs.Injected != ss.Injected || fs.Completed != ss.Completed ||
		fs.MalformedDropped != ss.MalformedDropped || fs.QueueDrops != ss.QueueDrops {
		t.Fatalf("ledger: fast %+v, interp %+v", fs, ss)
	}
	if !reflect.DeepEqual(fs.Actions, ss.Actions) {
		t.Fatalf("verdicts: fast %v, interp %v", fs.Actions, ss.Actions)
	}
	if timing {
		if fs.Cycles != ss.Cycles || fs.LatencySum != ss.LatencySum || fs.LatencyMax != ss.LatencyMax {
			t.Fatalf("hazard-free timing diverged: fast cycles=%d lat=%d/%d, interp cycles=%d lat=%d/%d",
				fs.Cycles, fs.LatencySum, fs.LatencyMax, ss.Cycles, ss.LatencySum, ss.LatencyMax)
		}
	}
	return fs, ss
}

// TestCompiledAppsMatchInterpreter is the in-package differential: all
// eight applications, seeded traffic, verdicts and map effects
// bit-identical to the interpreter (the conformance package runs the
// same comparison three ways; this one pins it where the closures
// live).
func TestCompiledAppsMatchInterpreter(t *testing.T) {
	for _, app := range append(apps.All(), apps.Toy(), apps.LeakyBucket(), apps.LoadBalancer()) {
		t.Run(app.Name, func(t *testing.T) {
			prog, err := app.Program()
			if err != nil {
				t.Fatal(err)
			}
			pl, err := core.Compile(prog, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			tcfg := app.Traffic
			tcfg.Seed = 7
			batch := pktgen.NewGenerator(tcfg).Batch(512)
			runDiffWithSetup(t, pl, app, batch)
		})
	}
}

// runDiffWithSetup mirrors runDiff but applies the app's host-side map
// setup to both engines before traffic. It returns the fast path's
// counters.
func runDiffWithSetup(t *testing.T, pl *core.Pipeline, app *apps.App, batch [][]byte) hwsim.Stats {
	t.Helper()
	m, err := fastpath.New(pl, hwsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := hwsim.New(pl, hwsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m.SetClock(func() uint64 { return 0 })
	s.SetClock(func() uint64 { return 0 })
	if err := app.Setup(m.Maps()); err != nil {
		t.Fatal(err)
	}
	if err := app.Setup(s.Maps()); err != nil {
		t.Fatal(err)
	}
	var fastOut, simOut []verdict
	m.OnComplete(func(r hwsim.Result) {
		fastOut = append(fastOut, verdict{r.Seq, r.Action, r.RedirectIfindex, ""})
	})
	s.OnComplete(func(r hwsim.Result) {
		simOut = append(simOut, verdict{r.Seq, r.Action, r.RedirectIfindex, ""})
	})
	for _, p := range batch {
		m.Inject(p)
		s.Inject(p)
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.RunToCompletion(1 << 22); err != nil {
		t.Fatal(err)
	}
	if err := s.RunToCompletion(1 << 22); err != nil {
		t.Fatal(err)
	}
	if len(fastOut) != len(simOut) {
		t.Fatalf("completions: fast %d, interp %d", len(fastOut), len(simOut))
	}
	// A flush victim re-enters the interpreter behind younger packets.
	slices.SortFunc(simOut, func(a, b verdict) int { return cmp.Compare(a.seq, b.seq) })
	for i := range fastOut {
		if fastOut[i] != simOut[i] {
			t.Fatalf("packet %d: fast %+v, interp %+v", i, fastOut[i], simOut[i])
		}
	}
	if err := conformance.CompareMaps(s.Maps(), m.Maps()); err != nil {
		t.Fatal(err)
	}
	return m.Stats()
}

// aluZooSource exercises every ALU form the specializer carries — both
// widths, immediate and register operands, the byte-order conversions —
// plus the generic tail (mul/div/mod) and a sample of every comparison
// the branch specializer knows, in both JMP and JMP32 classes.
const aluZooSource = `
r6 = 1000
r7 = 7
w8 = 300
r9 = -5
r6 += 5
r6 += r7
w6 += 3
w6 += w7
r6 -= 2
r6 -= r7
w6 -= w7
w6 -= 1
r6 &= 4095
r6 &= r7
w6 &= w7
w6 &= 15
r6 |= 256
r6 |= r7
w6 |= w7
w6 |= 3
r6 ^= 85
r6 ^= r7
w6 ^= w7
w6 ^= 9
r6 <<= 3
r6 <<= r7
r6 >>= 2
r6 >>= r7
r6 s>>= 1
r9 s>>= 2
r6 *= 3
r6 *= r7
r6 /= 3
r6 /= r7
r6 %= 1001
r6 %= r7
w6 *= w7
w6 /= w7
w6 %= w7
r9 = -r9
r8 = be16 r8
r8 = be32 r8
r8 = be64 r8
r8 = le16 r8
r8 = le32 r8
r8 = le64 r8
w6 <<= 2
w6 >>= 1
r6 ^= r8
r6 ^= r9
r5 = 0
if r6 == 0 goto b1
r5 += 1
b1:
if r6 != 1 goto b2
r5 += 1
b2:
if r6 > 100 goto b3
r5 += 1
b3:
if r6 < 100 goto b4
r5 += 1
b4:
if r6 >= r7 goto b5
r5 += 1
b5:
if r6 <= r7 goto b6
r5 += 1
b6:
if r9 s> -1 goto b7
r5 += 1
b7:
if r9 s< r7 goto b8
r5 += 1
b8:
if r9 s>= 0 goto b9
r5 += 1
b9:
if r9 s<= r6 goto b10
r5 += 1
b10:
if r6 & 1 goto b11
r5 += 1
b11:
if w6 == 12 goto b12
r5 += 1
b12:
if w6 != w7 goto b13
r5 += 1
b13:
if w6 > w7 goto b14
r5 += 1
b14:
if w9 s< 0 goto b15
r5 += 1
b15:
r0 = r5
r0 &= 3
exit
`

// TestALUZooMatchesInterpreter runs the synthetic ALU/branch program
// differentially. The design touches no map and no packet byte, so it
// is hazard-free by construction and the timing skeleton must agree
// with the interpreter cycle for cycle.
func TestALUZooMatchesInterpreter(t *testing.T) {
	pl := compilePipeline(t, "alu_zoo", aluZooSource)
	batch := pktgen.NewGenerator(pktgen.GeneratorConfig{Flows: 16, PacketLen: 64, Seed: 3}).Batch(64)
	runDiff(t, pl, nil, batch, false, true)
}

// memZooSource exercises the memory specializations: packet loads of
// every width, stack stores and loads of every width, a stack atomic
// (the generic path), map value loads/stores through the cached lookup
// slice, map atomics of both widths, the update and delete helpers,
// and a packet store.
const memZooSource = `
map scratch array key=4 value=16 entries=4

r2 = *(u32 *)(r1 + 4)
r1 = *(u32 *)(r1 + 0)
r3 = r1
r3 += 20
if r3 > r2 goto drop
r4 = *(u8 *)(r1 + 0)
r5 = *(u16 *)(r1 + 2)
r6 = *(u32 *)(r1 + 4)
r7 = *(u64 *)(r1 + 6)
*(u8 *)(r10 - 1) = r4
*(u16 *)(r10 - 4) = r5
*(u32 *)(r10 - 8) = r6
*(u64 *)(r10 - 16) = r7
r4 = *(u8 *)(r10 - 1)
r5 = *(u16 *)(r10 - 4)
r6 = *(u32 *)(r10 - 8)
r7 = *(u64 *)(r10 - 16)
lock *(u64 *)(r10 - 16) += r4
*(u8 *)(r1 + 1) = r4
r3 = 0
*(u32 *)(r10 - 24) = r3
r2 = r10
r2 += -24
r1 = map[scratch] ll
call 1
if r0 == 0 goto miss
r1 = r0
r2 = *(u64 *)(r1 + 0)
r2 += 1
*(u64 *)(r1 + 8) = r2
lock *(u64 *)(r1 + 0) += r2
r3 = 5
lock *(u32 *)(r1 + 8) |= r3
lock *(u32 *)(r1 + 12) &= r3
lock *(u32 *)(r1 + 12) ^= r3
r0 = 2
exit
miss:
r2 = r10
r2 += -24
r3 = r10
r3 += -16
r1 = map[scratch] ll
r4 = 0
call 2
r0 = 2
exit
drop:
r0 = 1
exit
`

// TestMemZooMatchesInterpreter runs the memory/atomic program
// differentially with the final packet bytes compared too (the program
// writes one packet byte).
func TestMemZooMatchesInterpreter(t *testing.T) {
	pl := compilePipeline(t, "mem_zoo", memZooSource)
	batch := pktgen.NewGenerator(pktgen.GeneratorConfig{Flows: 8, PacketLen: 64, Seed: 5}).Batch(128)
	runDiff(t, pl, nil, batch, true, false)
}

// TestTruncatedFrameFaults: a frame shorter than the parser's bounds
// check takes the hardware OOB verdict on both engines and counts one
// malformed drop.
func TestTruncatedFrameFaults(t *testing.T) {
	pl := compilePipeline(t, "mem_zoo_trunc", memZooSource)
	short := [][]byte{make([]byte, 10), make([]byte, 64)}
	for i := range short[1] {
		short[1][i] = byte(i)
	}
	fs, _ := runDiff(t, pl, nil, short, false, false)
	if fs.MalformedDropped != 1 {
		t.Fatalf("malformed drops %d, want 1", fs.MalformedDropped)
	}
}

// TestEligibleMatrix pins the fallback matrix: each interpreter-only
// feature is named, and the empty configuration is eligible.
func TestEligibleMatrix(t *testing.T) {
	if ok, why := fastpath.Eligible(hwsim.Config{}); !ok {
		t.Fatalf("default config ineligible: %s", why)
	}
	cases := []struct {
		cfg  hwsim.Config
		want string
	}{
		{hwsim.Config{Faults: new(faults.Injector)}, "fault"},
		{hwsim.Config{Protection: protect.LevelECC}, "protection"},
		{hwsim.Config{WatchdogCycles: 5}, "watchdog"},
		{hwsim.Config{Policy: hwsim.PolicyStall}, "stall"},
		{hwsim.Config{Trace: new(obs.Tracer)}, "tracing"},
		{hwsim.Config{Metrics: new(obs.Registry)}, "metrics"},
	}
	for _, tc := range cases {
		ok, why := fastpath.Eligible(tc.cfg)
		if ok || !strings.Contains(why, tc.want) {
			t.Errorf("config %+v: eligible=%v reason=%q, want reason containing %q", tc.cfg, ok, why, tc.want)
		}
	}
	if _, err := fastpath.New(compilePipeline(t, "toy_elig", aluZooSource), hwsim.Config{WatchdogCycles: 5}); err == nil {
		t.Error("New accepted an ineligible configuration")
	}
}

// TestQueueOverflowEpisodes: a bounded ingress queue refuses the
// overflowing packet, counts every drop, and counts episodes on the
// full edge only — exactly like the interpreter.
func TestQueueOverflowEpisodes(t *testing.T) {
	pl := compilePipeline(t, "zoo_q", aluZooSource)
	m, err := fastpath.New(pl, hwsim.Config{InputQueuePackets: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 64)
	if !m.InputFree() {
		t.Fatal("fresh machine refuses input")
	}
	if !m.Inject(p) || !m.Inject(p) {
		t.Fatal("queue refused within its bound")
	}
	if m.Inject(p) {
		t.Fatal("queue accepted past its bound")
	}
	if m.Inject(p) {
		t.Fatal("queue accepted past its bound")
	}
	st := m.Stats()
	if st.QueueDrops != 2 || st.QueueOverflows != 1 {
		t.Fatalf("drops=%d episodes=%d, want 2/1", st.QueueDrops, st.QueueOverflows)
	}
	// Drain one slot: the full episode ends, the next overflow is a new
	// episode.
	if err := m.Step(); err != nil {
		t.Fatal(err)
	}
	if !m.Inject(p) {
		t.Fatal("queue refused after draining a slot")
	}
	if m.Inject(p) {
		t.Fatal("queue accepted past its bound after refill")
	}
	st = m.Stats()
	if st.QueueDrops != 3 || st.QueueOverflows != 2 {
		t.Fatalf("drops=%d episodes=%d, want 3/2", st.QueueDrops, st.QueueOverflows)
	}
	if err := m.RunToCompletion(1 << 20); err != nil {
		t.Fatal(err)
	}
	if m.Busy() {
		t.Fatal("machine busy after RunToCompletion")
	}
}

// TestMultiFrameInjectPacing: frames larger than one flit hold the
// pipeline entrance for one cycle per flit; the timing must match the
// interpreter exactly (the design is hazard-free).
func TestMultiFrameInjectPacing(t *testing.T) {
	pl := compilePipeline(t, "zoo_mf", aluZooSource)
	batch := pktgen.NewGenerator(pktgen.GeneratorConfig{Flows: 4, PacketLen: 200, Seed: 2}).Batch(32)
	runDiff(t, pl, nil, batch, false, true)
}

// TestQuiesceResume covers the ingress gate and the clock surface: a
// Machine refuses a packet only at its queue bound, and every refusal
// is a counted drop that takes no sequence number.
func TestQuiesceResume(t *testing.T) {
	pl := compilePipeline(t, "zoo_qr", aluZooSource)
	m, err := fastpath.New(pl, hwsim.Config{InputQueuePackets: 1})
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	m.OnComplete(func(r hwsim.Result) { seqs = append(seqs, r.Seq) })
	p := make([]byte, 64)
	if !m.Inject(p) {
		t.Fatal("open ingress refused a packet")
	}
	if m.Inject(p) {
		t.Fatal("full ingress accepted a packet")
	}
	if st := m.Stats(); st.QueueDrops != 1 || st.Injected != 1 {
		t.Fatalf("refusal: drops=%d injected=%d, want 1/1", st.QueueDrops, st.Injected)
	}
	before := m.Cycle()
	if err := m.Step(); err != nil {
		t.Fatal(err)
	}
	if !m.Inject(p) {
		t.Fatal("drained ingress refused a packet")
	}
	if err := m.RunToCompletion(1 << 20); err != nil {
		t.Fatal(err)
	}
	if m.Cycle() <= before {
		t.Fatal("clock did not advance")
	}
	if len(seqs) != 2 || seqs[0] != 0 || seqs[1] != 1 {
		t.Fatalf("retired seqs %v, want [0 1]: a refusal must not take a sequence number", seqs)
	}
	if m.Maps() == nil {
		t.Fatal("Maps() nil")
	}
}

// TestRunToCompletionBound: a busy machine with an exhausted cycle
// budget errors instead of spinning.
func TestRunToCompletionBound(t *testing.T) {
	pl := compilePipeline(t, "zoo_bound", aluZooSource)
	m, err := fastpath.New(pl, hwsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m.Inject(make([]byte, 64))
	if err := m.RunToCompletion(0); err == nil || !strings.Contains(err.Error(), "drain") {
		t.Fatalf("bound exhaustion: %v", err)
	}
}

// TestProgSurface covers Compile and the engine-binding error paths: an
// empty design and an environment that does not carry the design's maps
// are refused.
func TestProgSurface(t *testing.T) {
	pl := compilePipeline(t, "mem_zoo_surface", memZooSource)
	if _, err := fastpath.Compile(pl); err != nil {
		t.Fatal(err)
	}
	if _, err := fastpath.Compile(&core.Pipeline{Transformed: pl.Transformed}); err == nil {
		t.Fatal("Compile accepted an empty pipeline")
	}
	bare := compilePipeline(t, "zoo_bare", aluZooSource)
	env, err := vm.NewEnv(bare.Transformed)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fastpath.NewCore(pl, hwsim.Config{}, env, true); err == nil {
		t.Fatal("NewCore accepted an environment without the design's maps")
	}
}

// TestActionHistogramOverflow: a program returning a verdict outside
// the common range still lands in the Stats histogram.
func TestActionHistogramOverflow(t *testing.T) {
	pl := compilePipeline(t, "odd_verdict", "r0 = 42\nexit\n")
	m, err := fastpath.New(pl, hwsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m.Inject(make([]byte, 64))
	if err := m.RunToCompletion(1 << 20); err != nil {
		t.Fatal(err)
	}
	if n := m.Stats().Actions.Count(ebpf.XDPAction(42)); n != 1 {
		t.Fatalf("verdict 42 counted %d times, want 1", n)
	}
}

// genericZooSource steers around the specializer on purpose: a
// register-relative packet walk (the base register is not statically
// elidable), a map lookup keyed by a packet pointer (the key fetch goes
// through the virtual-address resolver), an immediate store of each
// area, a fetch atomic, a CPU-only helper stub, and the branch forms
// the first zoo leaves to the generic comparator.
const genericZooSource = `
map gmap array key=4 value=16 entries=4

r9 = *(u32 *)(r1 + 0)
r2 = *(u32 *)(r1 + 4)
r3 = r9
r3 += 24
if r3 > r2 goto drop
r5 = *(u8 *)(r9 + 0)
r5 &= 7
r4 = r9
r4 += r5
r6 = *(u8 *)(r4 + 0)
r7 = *(u16 *)(r4 + 2)
*(u8 *)(r4 + 1) = r6
*(u32 *)(r10 - 8) = 7
*(u16 *)(r10 - 12) = 9
*(u64 *)(r10 - 24) = 1
r2 = r9
r1 = map[gmap] ll
call 1
if r0 == 0 goto upd
r1 = r0
*(u32 *)(r1 + 0) = 3
lock *(u64 *)(r1 + 8) += r6 fetch
r6 += r0
lock *(u32 *)(r1 + 4) += r7
call 8
r0 = r6
r0 &= 3
exit
upd:
r2 = r9
r3 = r9
r1 = map[gmap] ll
r4 = 0
call 2
r2 = r9
r1 = map[gmap] ll
call 3
r0 = 2
exit
drop:
r0 = 1
exit
`

// TestGenericPathsMatchInterpreter runs the anti-specializer program
// differentially, including final packet bytes.
func TestGenericPathsMatchInterpreter(t *testing.T) {
	pl := compilePipeline(t, "generic_zoo", genericZooSource)
	batch := pktgen.NewGenerator(pktgen.GeneratorConfig{Flows: 8, PacketLen: 64, Seed: 11}).Batch(256)
	runDiff(t, pl, nil, batch, true, false)
}

// deleteZooSource reaches what no other in-package program does: a
// 64-bit constant load, and the delete helper — on an entry the host
// installed (r0 0) and, for every later frame of the flow, on one that
// is gone (r0 -1).
const deleteZooSource = `
map dmap hash key=4 value=8 entries=64

r9 = *(u32 *)(r1 + 0)
r6 = *(u8 *)(r9 + 29)
r6 &= 7
*(u32 *)(r10 - 4) = r6
r7 = 0x1000000000000000 ll
r7 >>= 60
r1 = map[dmap] ll
r2 = r10
r2 += -4
call 3
r0 &= r7
r0 += 2
exit
`

// TestDeleteZooMatchesInterpreter: the first frame of each flow deletes
// its entry (XDP_PASS), the rest find it absent (XDP_TX), and the map
// ends empty on both engines.
func TestDeleteZooMatchesInterpreter(t *testing.T) {
	app := &apps.App{Name: "delete_zoo", Source: deleteZooSource, SetupHost: func(set *maps.Set) error {
		m, _ := set.ByName("dmap")
		for k := byte(0); k < 8; k++ {
			if err := m.Update([]byte{k, 0, 0, 0}, make([]byte, 8), maps.UpdateAny); err != nil {
				return err
			}
		}
		return nil
	}}
	pl := compilePipeline(t, app.Name, app.Source)
	batch := pktgen.NewGenerator(pktgen.GeneratorConfig{Flows: 8, PacketLen: 64, Seed: 17}).Batch(64)
	st := runDiffWithSetup(t, pl, app, batch)
	if st.Actions.Count(ebpf.XDPPass) == 0 || st.Actions.Count(ebpf.XDPTx) == 0 {
		t.Fatalf("verdicts %v: want both a successful and a failed delete", st.Actions)
	}
}

// TestStalePointerZooMatchesInterpreter: a hit on an LRU map smaller
// than the pipeline is deep keeps its value pointer while four younger
// packets insert, the last of them into the evicted entry's slot, and a
// fifth looks that key up; the late adds through the pointer — one
// coded, one register-relative — must reach no live entry, as on
// the one-burst table where nothing is ever late.
func TestStalePointerZooMatchesInterpreter(t *testing.T) {
	app := conformance.StalePointerZoo()
	pl := compilePipeline(t, app.Name, app.Source)
	batch := conformance.StalePointerFrames(append([]byte{1, 2, 3, 4, 5, 5}, make([]byte, 2*len(pl.Stages))...))
	st := runDiffWithSetup(t, pl, app, batch)
	if st.Actions.Count(ebpf.XDPPass) != 2 || st.Actions.Count(ebpf.XDPTx) != 4 {
		t.Fatalf("verdicts %v: want the reader's and the last packet's hit and four inserts", st.Actions)
	}
}

// branchZooSource completes the comparison matrix: the 64-bit
// register forms of eq/ne/gt/lt and the immediate forms of ge/le that
// the first zoo covers only through registers.
const branchZooSource = `
r6 = 40
r7 = 41
r5 = 0
if r6 == r7 goto c1
r5 += 1
c1:
if r6 != r7 goto c2
r5 += 1
c2:
if r6 > r7 goto c3
r5 += 1
c3:
if r6 < r7 goto c4
r5 += 1
c4:
if r6 >= 40 goto c5
r5 += 1
c5:
if r6 <= 40 goto c6
r5 += 1
c6:
if r6 s> r7 goto c7
r5 += 1
c7:
if r6 s>= r7 goto c8
r5 += 1
c8:
if r6 & r7 goto c9
r5 += 1
c9:
r0 = r5
r0 &= 3
exit
`

// TestBranchZooMatchesInterpreter: hazard-free, so timing must agree.
func TestBranchZooMatchesInterpreter(t *testing.T) {
	pl := compilePipeline(t, "branch_zoo", branchZooSource)
	batch := pktgen.NewGenerator(pktgen.GeneratorConfig{Flows: 4, PacketLen: 64, Seed: 13}).Batch(32)
	runDiff(t, pl, nil, batch, false, true)
}

// TestWindow: Core.Window hands out what accumulated since the last
// call — on both engines, with the window's own latency high-water mark,
// into a caller-owned scratch without allocating — while Stats() keeps
// the lifetime view.
func TestWindow(t *testing.T) {
	pl := compilePipeline(t, "zoo_w", aluZooSource)
	sim, err := hwsim.New(pl, hwsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := fastpath.New(pl, hwsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 64)
	for name, eng := range map[string]hwsim.Core{"interpreter": sim, "compiled": m} {
		var w hwsim.Stats
		run := func(n int) {
			for i := 0; i < n; i++ {
				if !eng.Inject(p) {
					t.Fatalf("%s: input refused", name)
				}
			}
			if err := eng.RunToCompletion(1 << 20); err != nil {
				t.Fatal(err)
			}
			eng.Window(&w)
		}
		run(40) // a burst: the last frame queues behind 39 others
		burst := w.LatencyMax
		var verdicts, kinds uint64
		w.Actions.Each(func(_ ebpf.XDPAction, n uint64) { verdicts += n })
		if w.Completed != 40 || verdicts != 40 || burst < 39 {
			t.Fatalf("%s: burst window completed %d, verdicts %d, max latency %d", name, w.Completed, verdicts, burst)
		}
		run(1)
		w.Actions.Each(func(ebpf.XDPAction, uint64) { kinds++ })
		if w.Completed != 1 || w.Injected != 1 || kinds != 1 || w.LatencyMax == 0 || w.LatencyMax >= burst || w.LatencySum != w.LatencyMax {
			t.Errorf("%s: second window %+v, want one frame at its own latency (burst max %d)", name, w, burst)
		}
		if st := eng.Stats(); st.Completed != 41 || st.LatencyMax != burst {
			t.Errorf("%s: lifetime completed %d max %d, want 41 and %d", name, st.Completed, st.LatencyMax, burst)
		}
		if n := testing.AllocsPerRun(10, func() { eng.Window(&w) }); n != 0 {
			t.Errorf("%s: Window allocates %v objects into a reused scratch", name, n)
		}
		if w.Completed != 0 || w.Cycles != 0 || !reflect.DeepEqual(w.Actions, hwsim.Verdicts{}) {
			t.Errorf("%s: idle window %+v, want empty", name, w)
		}
	}
}
