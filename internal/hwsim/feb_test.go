package hwsim

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/core"
	"ehdl/internal/ebpf"
	"ehdl/internal/faults"
	"ehdl/internal/pktgen"
)

// eachJob calls fn for every job the Sim holds outside its free pool.
func eachJob(s *Sim, fn func(*job)) {
	for t := s.stages.oldest(); t >= 0; t = s.stages.prevOccupied(t) {
		fn(s.stages.at(t))
	}
	for i := 0; i < s.reload.len(); i++ {
		fn(s.reload.at(i))
	}
	for i := 0; i < s.queue.len(); i++ {
		fn(s.queue.at(i))
	}
}

// checkFEBIndex recounts the FEB index from the read lists and compares.
func checkFEBIndex(t *testing.T, s *Sim, when string) {
	t.Helper()
	want := make([][febBuckets]uint32, len(s.maps))
	eachJob(s, func(j *job) {
		for id, r := range j.reads {
			for n := s.maps[id].keySize; len(r) > 0; r = r[n:] {
				want[id][febBucket(r[:n])]++
			}
		}
	})
	for id := range s.maps {
		feb := s.maps[id].feb
		if feb == nil {
			feb = make([]uint32, febBuckets)
		}
		for b, n := range feb {
			if n != want[id][b] {
				t.Fatalf("%s, cycle %d: map %d bucket %d holds %d, the read lists say %d", when, s.cycle, id, b, n, want[id][b])
			}
			if n != 0 && !s.Busy() {
				t.Fatalf("%s, cycle %d: map %d bucket %d holds %d with nothing in flight", when, s.cycle, id, b, n)
			}
		}
	}
}

// TestFEBIndexInvariant holds the Flush Evaluation Block's index to the
// read lists it summarises, after every clock of the four runs
// retirements.golden records — hazard flushes, the stall policy, a
// forced flush storm and a recovery drain — and to all-zero whenever
// the pipeline is empty.
func TestFEBIndexInvariant(t *testing.T) {
	rows := []struct {
		name      string
		cfg       Config
		recoverAt int
	}{
		{"flush", Config{}, -1},
		{"stall", Config{Policy: PolicyStall}, -1},
		{"storm", Config{Faults: faults.New(faults.Single(faults.FlushStorm, 0.05, 3))}, -1},
		{"recover", Config{}, 300},
	}
	for _, row := range rows {
		const frames = 600
		sim, ring := newLoadedSim(t, apps.LeakyBucket(), row.cfg, 256, pktgen.Zipf, frames)
		armed := 0
		for i := 0; i < frames || sim.Busy(); i++ {
			if i < frames {
				sim.Inject(ring[i])
			}
			if i == row.recoverAt {
				if err := sim.recoverNow("test"); err != nil {
					t.Fatal(err)
				}
				checkFEBIndex(t, sim, row.name+" after the drain")
			}
			for c := 0; c < 2; c++ {
				if err := sim.Step(); err != nil {
					t.Fatal(err)
				}
				checkFEBIndex(t, sim, row.name)
			}
			eachJob(sim, func(j *job) { armed += len(j.reads[0]) })
		}
		st := sim.Stats()
		if armed == 0 || row.cfg.Policy == PolicyFlush && st.Flushes == 0 {
			t.Fatalf("%s: %d armed read bytes seen, %d flushes: the index went unexercised", row.name, armed, st.Flushes)
		}
		checkFEBIndex(t, sim, row.name+" drained")
	}
}

// TestFEBIndexCollidingKeys: every frame is a flow of its own, and each
// odd one is picked to share its bucket with the frame before it. A
// writer then finds another packet's read counted beside its own, so the
// index cannot answer and the walk must — and the walk compares keys, so
// nothing is flushed. The same number of frames of one flow do flush.
func TestFEBIndexCollidingKeys(t *testing.T) {
	key := func(v uint32) []byte { return binary.BigEndian.AppendUint32(nil, v) }
	flows := make([]uint32, 400)
	for i, next := 0, uint32(0x0a000001); i < len(flows); i, next = i+1, next+1 {
		for i%2 == 1 && febBucket(key(next)) != febBucket(key(flows[i-1])) {
			next++
		}
		flows[i] = next
	}
	run := func(flow func(i int) uint32) (Stats, int) {
		sim, _ := newLoadedSim(t, apps.LeakyBucket(), Config{}, 1, pktgen.Uniform, 1)
		shared := 0
		for i := 0; i < len(flows) || sim.Busy(); i++ {
			if i < len(flows) {
				sim.Inject(ipv4Packet(flow(i), 64))
			}
			if err := sim.Step(); err != nil {
				t.Fatal(err)
			}
			checkFEBIndex(t, sim, "colliding keys")
			for _, n := range sim.maps[0].feb {
				if n > 1 {
					shared++
				}
			}
		}
		return sim.Stats(), shared
	}
	st, shared := run(func(i int) uint32 { return flows[i] })
	if shared == 0 {
		t.Fatal("no two flows ever had reads armed in one bucket at once")
	}
	if st.Flushes != 0 {
		t.Fatalf("%d flushes between flows that only share a bucket", st.Flushes)
	}
	if st, _ := run(func(int) uint32 { return flows[0] }); st.Flushes == 0 {
		t.Fatal("back-to-back frames of one flow did not flush: the walk behind the index is not reached")
	}
}

// jobImage is everything a replay restores, held apart from the job.
type jobImage struct {
	regs           [ebpf.NumRegisters]uint64
	stack          [ebpf.StackSize]byte
	head, extent   int
	buf            []byte // the whole buffer up to the data end, headroom included
	enabled        []uint64
	lookups        []lookup
	done           bool
	action         ebpf.XDPAction
	redirect       uint32
	commits, reads int
}

// imageOf deep-copies j's replay state. The packet's extent is probed
// through the helper that moves its tail.
func imageOf(t *testing.T, j *job) jobImage {
	t.Helper()
	img := jobImage{regs: j.st.Regs, stack: j.st.Stack, head: j.st.Pkt.HeadIndex(),
		enabled: append([]uint64(nil), j.enabled...), done: j.done, action: j.action,
		redirect: j.redirect, commits: j.commits}
	pkt := j.st.Pkt
	for pkt.AdjustTail(1) == nil {
		img.extent++
	}
	if err := pkt.AdjustTail(-img.extent); err != nil {
		t.Fatal(err)
	}
	if err := pkt.AdjustHead(-img.head); err != nil {
		t.Fatal(err)
	}
	img.buf = append([]byte(nil), pkt.Bytes()...)
	if err := pkt.AdjustHead(img.head); err != nil {
		t.Fatal(err)
	}
	for _, l := range j.lookups {
		img.lookups = append(img.lookups, lookup{addr: l.addr, val: l.val, key: append([]byte{}, l.key...), valid: l.valid})
	}
	for _, r := range j.reads {
		img.reads += len(r)
	}
	return img
}

// scribble dirties everything a restore must put back.
func scribble(t *testing.T, s *Sim, j *job, r *rand.Rand) {
	t.Helper()
	for i := range j.st.Regs {
		j.st.Regs[i] = r.Uint64()
	}
	r.Read(j.st.Stack[s.stackLo:s.stackHi])
	if err := j.st.Pkt.AdjustHead(-r.Intn(j.st.Pkt.HeadIndex() + 1)); err != nil {
		t.Fatal(err)
	}
	r.Read(j.st.Pkt.Bytes())
	if err := j.st.Pkt.AdjustTail(-r.Intn(j.st.Pkt.Len())); err != nil {
		t.Fatal(err)
	}
	for i := range j.enabled {
		j.enabled[i] = r.Uint64()
	}
	for i := range j.lookups {
		j.lookups[i] = lookup{addr: r.Uint64(), val: []byte{1}, key: append(j.lookups[i].key[:0], 9, 9), valid: true}
	}
	j.done, j.action, j.redirect, j.commits = true, ebpf.XDPAborted, 77, j.commits+3
}

// TestSlimSnapshotRestoresExactly: over the seeded random programs of the
// differential fuzzer, a job restored from what is kept — the frame for
// a replay from the pipeline input, the elastic slot filled from the
// low-water mark up — equals a full deep copy of the state it had:
// registers, stack, packet bytes with their headroom and extent, enable
// bits, lookups and verdict, with no read left armed.
func TestSlimSnapshotRestoresExactly(t *testing.T) {
	seeds, checked := int64(40), 0
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(0); seed < seeds; seed++ {
		prog, _, err := generateProgram(seed)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := core.Compile(prog, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sim, err := New(pl, Config{})
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(seed*31 + 7))
		injected := map[uint64]jobImage{}
		for i := 0; i < 40+r.Intn(40); i++ {
			frame := make([]byte, 20+r.Intn(90))
			r.Read(frame)
			if sim.Inject(frame) {
				j := sim.queue.at(sim.queue.len() - 1)
				injected[j.seq] = imageOf(t, j)
			}
			if err := sim.Step(); err != nil {
				t.Fatal(err)
			}
		}
		// The run stops here with the pipeline full: every job in a stage
		// is rewound both ways. That wrecks the Sim, which is dropped.
		var slot snapshot
		slot.lookups = make([]lookup, len(sim.maps))
		eachJob(sim, func(j *job) {
			before := imageOf(t, j)
			sim.capture(j, &slot)
			scribble(t, sim, j, r)
			sim.restore(j, &slot)
			after := imageOf(t, j)
			before.reads = 0
			if !reflect.DeepEqual(after, before) {
				t.Fatalf("seed %d packet %d: restored from the slot\n%+v\ncaptured\n%+v", seed, j.seq, after, before)
			}
			scribble(t, sim, j, r)
			sim.restore(j, nil)
			if after, want := imageOf(t, j), injected[j.seq]; !reflect.DeepEqual(after, want) {
				t.Fatalf("seed %d packet %d: restored from the frame\n%+v\ninjected\n%+v", seed, j.seq, after, want)
			}
			checked++
		})
		checkFEBIndex(t, sim, "after the restores")
	}
	if checked < 100 {
		t.Fatalf("%d restores checked: the pipelines were not full", checked)
	}
}

// staticZooSource drives every statically addressed access the
// executor codes through the interpreter's own loop: packet, stack and
// xdp_md accesses of each width on the private side; loads, both store
// forms and the atomics through a lookup pointer, plus the update and
// delete helpers, on the shared side.
const staticZooSource = `
map slots hash key=4 value=16 entries=64

r2 = *(u32 *)(r1 + 4)
r1 = *(u32 *)(r1 + 0)
r3 = r1
r3 += 62
if r3 > r2 goto drop
r4 = *(u8 *)(r1 + 0)
r5 = *(u16 *)(r1 + 2)
r6 = *(u32 *)(r1 + 4)
r7 = *(u64 *)(r1 + 6)
*(u8 *)(r10 - 1) = r4
*(u16 *)(r10 - 4) = r5
*(u32 *)(r10 - 8) = r6
*(u64 *)(r10 - 16) = r7
*(u32 *)(r10 - 20) = 77
r4 = *(u8 *)(r10 - 1)
r5 = *(u16 *)(r10 - 4)
r7 = *(u64 *)(r10 - 16)
*(u8 *)(r1 + 1) = r4
*(u16 *)(r1 + 60) = 513
r6 = *(u8 *)(r1 + 30)
r6 &= 7
*(u32 *)(r10 - 24) = r6
r2 = r10
r2 += -24
r1 = map[slots] ll
call 1
if r0 == 0 goto miss
r2 = *(u64 *)(r0 + 0)
r3 = *(u16 *)(r0 + 14)
r2 += r3
*(u64 *)(r0 + 8) = r2
*(u8 *)(r0 + 15) = 9
lock *(u64 *)(r0 + 0) += r7
r3 = 5
lock *(u32 *)(r0 + 8) |= r3
lock *(u32 *)(r0 + 12) ^= r5
r2 &= 15
if r2 != 3 goto keep
r2 = r10
r2 += -24
r1 = map[slots] ll
call 3
keep:
r0 = 2
exit
miss:
r2 = r10
r2 += -24
r3 = r10
r3 += -16
r1 = map[slots] ll
r4 = 0
call 2
r0 = 3
exit
drop:
r0 = 1
exit
`

// TestStaticAccessZooMatchesGeneric runs the zoo through both of the
// interpreter's tables — the codes on lookup slices, and the generic
// path that resolves every address through MemSpace — on traffic whose
// eight keys keep colliding, and then against the reference VM.
func TestStaticAccessZooMatchesGeneric(t *testing.T) {
	prog := compile(t, "static_zoo", staticZooSource, core.Options{}).Prog
	r := rand.New(rand.NewSource(23))
	packets := make([][]byte, 400)
	for i := range packets {
		packets[i] = make([]byte, 64)
		r.Read(packets[i])
		if r.Intn(6) == 0 {
			packets[i] = packets[i][:20+r.Intn(44)]
		}
	}
	fuzzDifferential(t, 23, prog, core.Options{}, packets)

	// The same table must be the one a plain Sim runs: every statically
	// addressed access coded, none on the generic path.
	sim, err := New(compile(t, "static_zoo", staticZooSource, core.Options{}), Config{})
	if err != nil {
		t.Fatal(err)
	}
	direct := 0
	for i := range sim.ops {
		if op := &sim.ops[i]; op.Access != nil && op.BaseElided && op.code != opCommit {
			direct++
			if op.code == opRun {
				t.Errorf("stage %d (%s): a static access is not coded", op.stage, op.Ins)
			}
		}
	}
	if direct < 20 {
		t.Fatalf("%d statically addressed ops: the zoo lost its animals", direct)
	}
}
