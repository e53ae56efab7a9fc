package hwsim

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"ehdl/internal/asm"
	"ehdl/internal/core"
	"ehdl/internal/ebpf"
	"ehdl/internal/vm"
)

const toySource = `
map stats array key=4 value=8 entries=4

r2 = *(u32 *)(r1 + 4)
r1 = *(u32 *)(r1 + 0)
r3 = r1
r3 += 14
if r3 > r2 goto drop
r3 = 0
*(u32 *)(r10 - 4) = r3
r2 = *(u8 *)(r1 + 13)
r1 = *(u8 *)(r1 + 12)
r1 <<= 8
r1 |= r2
if r1 == 34525 goto ipv6
if r1 == 2054 goto arp
if r1 != 2048 goto lookup
r1 = 1
goto store
ipv6:
r1 = 2
goto store
arp:
r1 = 3
store:
*(u32 *)(r10 - 4) = r1
lookup:
r2 = r10
r2 += -4
r1 = map[stats] ll
call 1
r1 = r0
r0 = 3
if r1 == 0 goto out
r2 = 1
lock *(u64 *)(r1 + 0) += r2
out:
exit
drop:
r0 = 1
exit
`

// flowSource reads a per-flow entry and installs it on miss: the shape
// that produces RAW hazards and pipeline flushes.
const flowSource = `
map conn hash key=4 value=8 entries=4096

r2 = *(u32 *)(r1 + 0)
r3 = *(u32 *)(r2 + 26)       ; src IP
*(u32 *)(r10 - 4) = r3
r1 = map[conn] ll
r2 = r10
r2 += -4
call 1
if r0 == 0 goto miss
r1 = 1
lock *(u64 *)(r0 + 0) += r1  ; hit counter (per-flow, not global)
r0 = 2
exit
miss:
*(u64 *)(r10 - 16) = 1
r1 = map[conn] ll
r2 = r10
r2 += -4
r3 = r10
r3 += -16
r4 = 0
call 2
r0 = 2
exit
`

func ethPacket(etherType uint16, size int) []byte {
	if size < 14 {
		size = 14
	}
	pkt := make([]byte, size)
	binary.BigEndian.PutUint16(pkt[12:14], etherType)
	return pkt
}

func ipv4Packet(src uint32, size int) []byte {
	pkt := ethPacket(ebpf.EthPIP, size)
	binary.BigEndian.PutUint32(pkt[26:30], src)
	return pkt
}

func compile(t *testing.T, name, src string, opts core.Options) *core.Pipeline {
	t.Helper()
	prog, err := asm.Assemble(name, src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Compile(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runBoth validates the compiled design, executes the same packet
// sequence on the reference VM and the pipeline simulator and compares
// actions, packet bytes, and final map contents.
func runBoth(t *testing.T, name, src string, opts core.Options, cfg Config, packets [][]byte) (Stats, []Result) {
	t.Helper()
	pl := compile(t, name, src, opts)

	// Reference: strictly sequential execution.
	prog, _ := asm.Assemble(name, src)
	refEnv, err := vm.NewEnv(prog)
	if err != nil {
		t.Fatal(err)
	}
	refEnv.Now = func() uint64 { return 0 } // pin time for determinism
	machine, err := vm.New(prog, refEnv)
	if err != nil {
		t.Fatal(err)
	}
	type refOut struct {
		action ebpf.XDPAction
		data   []byte
	}
	refs := make([]refOut, len(packets))
	for i, data := range packets {
		pkt := vm.NewPacket(data)
		res, err := machine.Run(pkt)
		if err != nil {
			t.Fatalf("reference run %d: %v", i, err)
		}
		refs[i] = refOut{action: res.Action, data: append([]byte(nil), pkt.Bytes()...)}
	}

	// Pipeline.
	if err := validate(pl); err != nil {
		t.Fatal(err)
	}
	sim, err := New(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Maps() // ensure constructed
	simEnv := sim.env
	simEnv.Now = func() uint64 { return 0 }
	sim.KeepData(true)
	results := make([]Result, 0, len(packets))
	sim.OnComplete(func(r Result) { results = append(results, r) })

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

	if len(results) != len(packets) {
		t.Fatalf("pipeline completed %d of %d packets", len(results), len(packets))
	}
	for _, r := range results {
		ref := refs[r.Seq]
		if r.Action != ref.action {
			t.Fatalf("packet %d: pipeline action %v, reference %v", r.Seq, r.Action, ref.action)
		}
		if !bytes.Equal(r.Data, ref.data) {
			t.Fatalf("packet %d: pipeline bytes differ from reference", r.Seq)
		}
	}

	// Maps must match the sequential outcome.
	for id := 0; id < refEnv.Maps.Len(); id++ {
		refMap, _ := refEnv.Maps.ByID(id)
		simMap, _ := sim.Maps().ByID(id)
		if refMap.Len() != simMap.Len() {
			t.Fatalf("map %d: %d entries vs reference %d", id, simMap.Len(), refMap.Len())
		}
		refMap.Iterate(func(k, v []byte) bool {
			got, ok := simMap.Lookup(k)
			if !ok {
				t.Fatalf("map %d: key %x missing in pipeline", id, k)
			}
			if !bytes.Equal(got, v) {
				t.Fatalf("map %d key %x: pipeline %x, reference %x", id, k, got, v)
			}
			return true
		})
	}
	return sim.Stats(), results
}

func TestToyDifferential(t *testing.T) {
	var packets [][]byte
	for i := 0; i < 50; i++ {
		switch i % 4 {
		case 0:
			packets = append(packets, ethPacket(ebpf.EthPIP, 64))
		case 1:
			packets = append(packets, ethPacket(ebpf.EthPIPV6, 64))
		case 2:
			packets = append(packets, ethPacket(ebpf.EthPARP, 64))
		default:
			packets = append(packets, ethPacket(0x88cc, 64))
		}
	}
	stats, results := runBoth(t, "toy", toySource, core.Options{}, Config{}, packets)
	if stats.Flushes != 0 {
		t.Errorf("atomic-protected counters flushed %d times", stats.Flushes)
	}
	for _, r := range results {
		if r.Action != ebpf.XDPTx {
			t.Errorf("packet %d: action %v", r.Seq, r.Action)
		}
	}
}

func TestToyShortPacketDroppedByHardwareBoundsCheck(t *testing.T) {
	// A 10-byte runt cannot supply the EtherType bytes: the elided
	// bounds check is enforced by the frame access itself.
	pl := compile(t, "toy", toySource, core.Options{})
	sim, err := New(pl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var got []Result
	sim.OnComplete(func(r Result) { got = append(got, r) })
	sim.Inject(make([]byte, 10))
	if err := sim.RunToCompletion(10000); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Action != ebpf.XDPDrop {
		t.Fatalf("runt packet result = %+v, want XDP_DROP", got)
	}
}

func TestToyThroughputOnePacketPerCycle(t *testing.T) {
	pl := compile(t, "toy", toySource, core.Options{})
	sim, err := New(pl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		if !sim.Inject(ethPacket(ebpf.EthPIP, 64)) {
			t.Fatal("input queue overflow")
		}
	}
	if err := sim.RunToCompletion(1 << 20); err != nil {
		t.Fatal(err)
	}
	st := sim.Stats()
	if st.Completed != n {
		t.Fatalf("completed %d of %d", st.Completed, n)
	}
	// One 64-byte packet per cycle plus the pipeline drain tail.
	if st.Cycles > n+uint64(pl.NumStages())+8 {
		t.Errorf("cycles = %d for %d packets over %d stages: not one per cycle",
			st.Cycles, n, pl.NumStages())
	}
	// At 250 MHz that is ~250 Mpps, comfortably above the 148 Mpps line
	// rate of the paper's 100 Gbps port.
	if mpps := st.Mpps(250e6); mpps < 200 {
		t.Errorf("throughput = %.1f Mpps, want ~250", mpps)
	}
}

func TestToyLatencyMatchesDepth(t *testing.T) {
	pl := compile(t, "toy", toySource, core.Options{})
	sim, err := New(pl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var lat uint64
	sim.OnComplete(func(r Result) { lat = r.LatencyCycles })
	sim.Inject(ethPacket(ebpf.EthPIP, 64))
	if err := sim.RunToCompletion(10000); err != nil {
		t.Fatal(err)
	}
	if lat != uint64(pl.NumStages())+1 { // +1: input FIFO handoff
		t.Errorf("latency = %d cycles, want pipeline depth %d + 1", lat, pl.NumStages())
	}
}

func TestFlowStateDifferentialWithFlushes(t *testing.T) {
	// Many packets of few flows back to back: guaranteed RAW hazards on
	// the miss->update path; the flush machinery must still produce the
	// sequential outcome.
	r := rand.New(rand.NewSource(7))
	var packets [][]byte
	for i := 0; i < 300; i++ {
		packets = append(packets, ipv4Packet(uint32(r.Intn(4)), 64))
	}
	stats, _ := runBoth(t, "flow", flowSource, core.Options{}, Config{}, packets)
	if stats.Flushes == 0 {
		t.Error("no flushes despite back-to-back same-flow misses")
	}
}

// touchSource writes per-flow state on every packet (a read-modify-write
// of the flow counter), the access pattern whose flush probability
// follows the birthday argument of Appendix A.1.
const touchSource = `
map ts hash key=4 value=8 entries=8192

r2 = *(u32 *)(r1 + 0)
r3 = *(u32 *)(r2 + 26)       ; src IP
*(u32 *)(r10 - 4) = r3
r1 = map[ts] ll
r2 = r10
r2 += -4
call 1
if r0 == 0 goto miss
r5 = *(u64 *)(r0 + 0)
r5 += 1
*(u64 *)(r0 + 0) = r5        ; non-atomic RMW: flush-protected
r0 = 2
exit
miss:
*(u64 *)(r10 - 16) = 1
r1 = map[ts] ll
r2 = r10
r2 += -4
r3 = r10
r3 += -16
r4 = 0
call 2
r0 = 2
exit
`

func TestFlowStateManyFlowsFewFlushes(t *testing.T) {
	// With many flows the hazard probability collapses (the birthday
	// argument of Appendix A.1); with two flows nearly every packet
	// collides inside the read-to-write window.
	gen := func(flows int) [][]byte {
		r := rand.New(rand.NewSource(7))
		var packets [][]byte
		for i := 0; i < 400; i++ {
			packets = append(packets, ipv4Packet(uint32(r.Intn(flows)), 64))
		}
		return packets
	}
	statsMany, _ := runBoth(t, "touch", touchSource, core.Options{}, Config{}, gen(100000))
	statsFew, _ := runBoth(t, "touch", touchSource, core.Options{}, Config{}, gen(2))

	if statsMany.Flushes >= statsFew.Flushes {
		t.Errorf("flushes: %d with 100k flows vs %d with 2 flows; expected fewer with more flows",
			statsMany.Flushes, statsFew.Flushes)
	}
	if statsFew.Flushes == 0 {
		t.Error("two-flow write-per-packet traffic never flushed")
	}
}

func TestSingleFlowAtomicVsFlushAblation(t *testing.T) {
	// Section 5.3: forcing every packet onto one map key. With the
	// atomic primitive the pipeline sustains a packet per cycle; with
	// atomics lowered to flush-protected read-modify-writes the
	// throughput collapses.
	packets := make([][]byte, 600)
	for i := range packets {
		packets[i] = ethPacket(ebpf.EthPIP, 64) // all hit stats[1]
	}

	atomicStats, _ := runBoth(t, "toy", toySource, core.Options{}, Config{}, packets)
	flushStats, _ := runBoth(t, "toy", toySource, core.Options{DisableAtomics: true}, Config{}, packets)

	if atomicStats.Flushes != 0 {
		t.Errorf("atomic pipeline flushed %d times", atomicStats.Flushes)
	}
	if flushStats.Flushes == 0 {
		t.Error("lowered pipeline never flushed on single-key traffic")
	}
	if flushStats.Cycles <= atomicStats.Cycles*2 {
		t.Errorf("flush-lowered run took %d cycles vs %d with atomics: degradation too small",
			flushStats.Cycles, atomicStats.Cycles)
	}
}

func TestHazardPolicyStallAblation(t *testing.T) {
	// The FlowBlaze-style stall policy degrades throughput even without
	// actual key collisions (distinct flows), while flushing does not.
	r := rand.New(rand.NewSource(11))
	packets := make([][]byte, 400)
	for i := range packets {
		packets[i] = ipv4Packet(uint32(r.Intn(100000)), 64)
	}
	flushStats, _ := runBoth(t, "flow", flowSource, core.Options{}, Config{Policy: PolicyFlush}, packets)
	stallStats, _ := runBoth(t, "flow", flowSource, core.Options{}, Config{Policy: PolicyStall}, packets)

	if stallStats.Cycles <= flushStats.Cycles {
		t.Errorf("stall run %d cycles vs flush run %d: conservative stalling should be slower",
			stallStats.Cycles, flushStats.Cycles)
	}
	if stallStats.StallCycles == 0 {
		t.Error("stall policy recorded no stall cycles")
	}
}

func TestMultiFramePacketsPaceInjection(t *testing.T) {
	pl := compile(t, "toy", toySource, core.Options{})
	sim, err := New(pl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		sim.Inject(ethPacket(ebpf.EthPIP, 512)) // 8 frames at 64B
	}
	if err := sim.RunToCompletion(1 << 20); err != nil {
		t.Fatal(err)
	}
	st := sim.Stats()
	if st.Completed != n {
		t.Fatalf("completed %d of %d", st.Completed, n)
	}
	if st.Cycles < n*8 {
		t.Errorf("cycles = %d; 8-frame packets must take at least 8 cycles each", st.Cycles)
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	pl := compile(t, "toy", toySource, core.Options{})
	sim, err := New(pl, Config{InputQueuePackets: 4})
	if err != nil {
		t.Fatal(err)
	}
	accepted := 0
	for i := 0; i < 10; i++ {
		if sim.Inject(ethPacket(ebpf.EthPIP, 64)) {
			accepted++
		}
	}
	if accepted != 4 {
		t.Errorf("accepted %d, want 4", accepted)
	}
	if sim.Stats().QueueDrops != 6 {
		t.Errorf("drops = %d, want 6", sim.Stats().QueueDrops)
	}
}

func TestRedirectThroughPipeline(t *testing.T) {
	src := `
r1 = 7
r2 = 0
call bpf_redirect
exit
`
	pl := compile(t, "redir", src, core.Options{})
	sim, err := New(pl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var got Result
	sim.OnComplete(func(r Result) { got = r })
	sim.Inject(make([]byte, 64))
	if err := sim.RunToCompletion(10000); err != nil {
		t.Fatal(err)
	}
	if got.Action != ebpf.XDPRedirect || got.RedirectIfindex != 7 {
		t.Fatalf("redirect result = %+v", got)
	}
}

func TestPropertyRandomTrafficDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential property test")
	}
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		var packets [][]byte
		for i := 0; i < 120; i++ {
			flows := 1 << (1 + r.Intn(10))
			packets = append(packets, ipv4Packet(uint32(r.Intn(flows)), 60+r.Intn(200)))
		}
		runBoth(t, "flow", flowSource, core.Options{}, Config{}, packets)
		runBoth(t, "toy", toySource, core.Options{}, Config{}, packets)
	}
}
