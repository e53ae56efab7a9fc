package hwsim

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ehdl/internal/core"
	"ehdl/internal/ebpf"
	"ehdl/internal/faults"
)

// Mode bits of a hygieneSource frame (byte 40).
const (
	modeScribble = 1 << iota // dirty the headroom and the whole stack
	modeOOB                  // read past the end of the packet
)

// hygieneSource builds a program whose verdict bytes expose everything
// a recycled job could leak. Every frame grows 16 bytes into the
// headroom without writing them and copies three never-written stack
// slots into the packet, so stale headroom or stack shows up in
// Result.Data; then it read-modify-writes a per-flow entry, so
// same-flow neighbours flush and replay from the snapshot slots. A
// frame with modeScribble first grows 128 bytes into the headroom,
// fills them, shrinks back, and overwrites all 512 stack bytes.
func hygieneSource() string {
	var b strings.Builder
	b.WriteString(`
map flows hash key=4 value=8 entries=4096

r6 = r1
r7 = *(u32 *)(r6 + 0)
r8 = *(u8 *)(r7 + 40)          ; mode bits
r9 = *(u32 *)(r7 + 26)         ; source address: the flow key
if r8 & 1 goto scribble
goto expose

scribble:
r1 = r6
r2 = -128
call 44                        ; bpf_xdp_adjust_head: into the headroom
r7 = *(u32 *)(r6 + 0)
r3 = -1
`)
	for off := 0; off < 128; off += 8 {
		fmt.Fprintf(&b, "*(u64 *)(r7 + %d) = r3\n", off)
	}
	b.WriteString(`r1 = r6
r2 = 128
call 44                        ; and back out: the bytes stay dirty
r7 = *(u32 *)(r6 + 0)
r3 = -1
`)
	for off := 8; off <= ebpf.StackSize; off += 8 {
		fmt.Fprintf(&b, "*(u64 *)(r10 - %d) = r3\n", off)
	}
	b.WriteString(`r4 = r8
r4 >>= 4                       ; zero, unless an upset hit the mode register
r5 = r10
r5 -= r4                       ; a computed stack pointer: the upset lands here
r3 = *(u8 *)(r5 - 48)
*(u8 *)(r7 + 2) = r3
if r8 & 2 goto oob
goto rmw                       ; the stack is dirty: skip the expose reads

oob:
r3 = *(u8 *)(r7 + 200)         ; past the end: the hardware bounds check drops
*(u8 *)(r7 + 1) = r3
goto rmw

expose:
r1 = r6
r2 = -16
call 44                        ; 16 headroom bytes become packet data, unwritten
r7 = *(u32 *)(r6 + 0)
r3 = *(u64 *)(r10 - 16)        ; three stack slots nothing wrote
*(u64 *)(r7 + 16) = r3
r3 = *(u64 *)(r10 - 264)
*(u64 *)(r7 + 24) = r3
r3 = *(u64 *)(r10 - 512)
*(u64 *)(r7 + 32) = r3

rmw:
*(u32 *)(r10 - 4) = r9
r1 = map[flows] ll
r2 = r10
r2 += -4
call 1
if r0 == 0 goto install
r3 = *(u64 *)(r0 + 0)
r3 += 1
*(u64 *)(r0 + 0) = r3          ; the hazardous store
r7 = *(u32 *)(r6 + 0)
*(u8 *)(r7 + 63) = r3          ; the count this frame saw, into the verdict bytes
r0 = 3
exit

install:
*(u64 *)(r10 - 32) = 1
r1 = map[flows] ll
r2 = r10
r2 += -4
r3 = r10
r3 += -32
r4 = 0
call 2
r0 = 3
exit
`)
	return b.String()
}

func hygieneFrame(flow uint32, mode byte) []byte {
	pkt := ipv4Packet(flow, 64)
	pkt[40] = mode
	return pkt
}

// drive offers frames the way a saturating source does — the ingress
// queue topped up before every clock — and drains the pipeline. The
// injection schedule is a function of the simulator's own state, so two
// simulators in equivalent states see identical timing.
func drive(t *testing.T, sim *Sim, frames [][]byte, midway func(sent int)) {
	t.Helper()
	sent := 0
	for sent < len(frames) || sim.Busy() {
		for sent < len(frames) && sim.InputFree() {
			sim.Inject(frames[sent])
			sent++
			if midway != nil {
				midway(sent)
			}
		}
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecycledJobIndistinguishableFromFresh: a simulator whose whole
// job pool has carried the dirtiest frames the model admits — headroom
// written through bpf_xdp_adjust_head, every stack byte scribbled,
// flushed and replayed, retired by SEU abort, by the out-of-bounds drop
// and by a recovery drain — must then serve clean frames exactly as a
// fresh simulator does: verdict, bytes, latency and flush count.
func TestRecycledJobIndistinguishableFromFresh(t *testing.T) {
	pl := compile(t, "hygiene", hygieneSource(), core.Options{})
	const queueDepth = 8
	newSim := func() *Sim {
		// A zero-rate injector: no random faults, but degraded execution
		// is on, so a packet an upset made unexecutable aborts.
		sim, err := New(pl, Config{InputQueuePackets: queueDepth, Faults: faults.New(faults.Config{})})
		if err != nil {
			t.Fatal(err)
		}
		sim.SetClock(func() uint64 { return 0 })
		sim.KeepData(true)
		return sim
	}
	poolBound := len(pl.Stages) + queueDepth

	// Dirty phase. Same-flow neighbours flush; every sixth frame takes
	// the out-of-bounds drop; one frame is hit by a pointer upset
	// mid-flight; and a recovery drains a full pipeline.
	var dirty [][]byte
	for i := 0; i < 6*poolBound; i++ {
		mode := byte(modeScribble)
		if i%6 == 5 {
			mode |= modeOOB
		}
		dirty = append(dirty, hygieneFrame(uint32(1+i/2%64), mode))
	}
	sim := newSim()
	drive(t, sim, dirty, func(sent int) {
		switch sent {
		case 2 * poolBound:
			// An SEU in the mode register of every frame in flight: the
			// ones yet to compute their stack pointer from it resolve
			// nowhere and abort.
			for _, j := range sim.stages.slots {
				if j != nil {
					j.st.Regs[ebpf.R8] ^= 1 << 40
				}
			}
		case 4 * poolBound:
			if err := sim.recoverNow("hygiene test"); err != nil {
				t.Fatal(err)
			}
		}
	})
	st := sim.Stats()
	if st.Flushes == 0 || st.AbortedFaults == 0 || st.MalformedDropped == 0 || st.RecoveryAborted == 0 {
		t.Fatalf("dirty phase missed a retirement path: %d flushes, %d SEU aborts, %d OOB drops, %d recovery aborts",
			st.Flushes, st.AbortedFaults, st.MalformedDropped, st.RecoveryAborted)
	}
	if sim.jobsAllocated != poolBound {
		t.Fatalf("dirty phase allocated %d jobs, want the full pool of %d", sim.jobsAllocated, poolBound)
	}
	if sim.pooled() != sim.jobsAllocated {
		t.Fatalf("%d of %d jobs returned to the pool after the drain", sim.pooled(), sim.jobsAllocated)
	}
	for sim.cycle < sim.recoveryHold {
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}

	// Clean phase, on flows the dirty phase never touched. Pairs of
	// same-flow neighbours keep the flush/replay path in play.
	var clean [][]byte
	for i := 0; i < 2*poolBound+5; i++ {
		clean = append(clean, hygieneFrame(uint32(1000+i/2), 0))
	}
	run := func(sim *Sim) []Result {
		var out []Result
		base := sim.seq
		sim.OnComplete(func(r Result) {
			r.Seq -= base
			out = append(out, r)
		})
		drive(t, sim, clean, nil)
		return out
	}
	got, want := run(sim), run(newSim())
	if sim.jobsAllocated != poolBound {
		t.Errorf("clean phase grew the pool to %d jobs: it did not run on recycled ones", sim.jobsAllocated)
	}
	if len(got) != len(clean) || len(want) != len(clean) {
		t.Fatalf("retired %d (recycled) and %d (fresh) of %d clean frames", len(got), len(want), len(clean))
	}
	flushed := 0
	for i := range want {
		g, w := got[i], want[i]
		if g.Seq != w.Seq || g.Action != w.Action || g.LatencyCycles != w.LatencyCycles || g.Flushed != w.Flushed || !bytes.Equal(g.Data, w.Data) {
			t.Fatalf("completion %d differs on recycled jobs:\n got  %+v\n want %+v", i, g, w)
		}
		flushed += w.Flushed
		// Independent of the fresh simulator: the exposed headroom and
		// stack bytes of a clean frame are zero.
		if len(w.Data) != 80 || !bytes.Equal(w.Data[:16], make([]byte, 16)) || !bytes.Equal(w.Data[16:40], make([]byte, 24)) {
			t.Fatalf("clean frame %d exposes non-zero headroom or stack: %x", i, w.Data)
		}
		if w.Action != ebpf.XDPTx {
			t.Fatalf("clean frame %d: verdict %v", i, w.Action)
		}
	}
	if flushed == 0 {
		t.Error("no clean frame was flushed: the snapshot slots went unexercised")
	}
}

// TestJobPoolBounded: in-flight jobs never exceed the pipeline depth
// plus the ingress bound (flush victims leave a stage for the reload
// queue, so they are already counted), however long the run and however
// hard the source pushes; and a drained simulator holds every job it
// ever allocated in its free list.
func TestJobPoolBounded(t *testing.T) {
	pl := compile(t, "flow", flowSource, core.Options{})
	const queueDepth = 32
	sim, err := New(pl, Config{InputQueuePackets: queueDepth})
	if err != nil {
		t.Fatal(err)
	}
	sim.SetClock(func() uint64 { return 0 })
	const frames = 100_000
	ring := make([][]byte, 1024)
	for i := range ring {
		// A hot head over a long tail: flushes fire throughout.
		flow := uint32(i)
		if i%4 != 0 {
			flow = uint32(i % 7)
		}
		ring[i] = ipv4Packet(flow, 64)
	}
	// Two offers per clock: the queue sits at its bound and overflows.
	for sent := 0; sent < frames || sim.Busy(); {
		for k := 0; k < 2 && sent < frames; k++ {
			sim.Inject(ring[sent%len(ring)])
			sent++
		}
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
		if inFlight := sim.jobsAllocated - sim.pooled(); inFlight > len(pl.Stages)+queueDepth {
			t.Fatalf("cycle %d: %d jobs in flight, bound is %d stages + %d queued", sim.cycle, inFlight, len(pl.Stages), queueDepth)
		}
	}
	st := sim.Stats()
	if st.Flushes == 0 || st.QueueDrops == 0 {
		t.Fatalf("run exercised %d flushes and %d ingress drops, want both", st.Flushes, st.QueueDrops)
	}
	if st.Completed+st.QueueDrops != frames {
		t.Errorf("%d completed + %d dropped of %d offered", st.Completed, st.QueueDrops, frames)
	}
	if bound := len(pl.Stages) + queueDepth; sim.jobsAllocated > bound {
		t.Errorf("%d jobs allocated over %d frames, bound is %d", sim.jobsAllocated, frames, bound)
	}
	if sim.pooled() != sim.jobsAllocated {
		t.Errorf("drained simulator holds %d of its %d jobs", sim.pooled(), sim.jobsAllocated)
	}
}

// TestJobRing covers the deque the ingress and reload queues share:
// FIFO order, pushes at the head, and growth with a wrapped head.
func TestJobRing(t *testing.T) {
	var r jobRing
	jobs := make([]*job, 100)
	for i := range jobs {
		jobs[i] = &job{seq: uint64(i)}
	}
	// Wrap the head, then grow past the initial capacity.
	for i := 0; i < 10; i++ {
		r.pushBack(jobs[i])
	}
	for i := 0; i < 7; i++ {
		if got := r.popFront(); got != jobs[i] {
			t.Fatalf("pop %d: got seq %d", i, got.seq)
		}
	}
	for i := 10; i < 60; i++ {
		r.pushBack(jobs[i])
	}
	// Flush victims go in front, oldest first.
	for i := 6; i >= 4; i-- {
		r.pushFront(jobs[i])
	}
	if r.len() != 56 {
		t.Fatalf("len %d, want 56", r.len())
	}
	for i := 0; i < 56; i++ {
		if got := r.at(i); got != jobs[4+i] {
			t.Fatalf("at(%d): got seq %d, want %d", i, got.seq, 4+i)
		}
	}
	for i := 4; i < 60; i++ {
		if got := r.popFront(); got != jobs[i] {
			t.Fatalf("pop: got seq %d, want %d", got.seq, i)
		}
	}
	if r.len() != 0 {
		t.Fatalf("len %d after draining", r.len())
	}
}

// pooled counts the jobs on the Sim's free list.
func (s *Sim) pooled() int {
	n := 0
	for j := s.free; j != nil; j = j.nextFree {
		n++
	}
	return n
}
