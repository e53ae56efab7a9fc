package conformance

import (
	"math/rand"
	"slices"
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/core"
	"ehdl/internal/ebpf"
	"ehdl/internal/pktgen"
)

// fuzzSeedCorpus is the malformed-packet seed set: every structured
// malformation the generator knows, header-boundary truncations, and
// random byte soup — the traffic the hardware bounds check must turn
// into clean verdicts on both engines.
func fuzzSeedCorpus(seed int64) [][]byte {
	base := pktgen.Build(pktgen.PacketSpec{
		Flow:     pktgen.Flow{SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: 4242, DstPort: 8080, Proto: 17},
		TotalLen: 64,
	})
	r := rand.New(rand.NewSource(seed))
	var out [][]byte
	for _, kind := range pktgen.MalformKinds() {
		for i := 0; i < 3; i++ {
			out = append(out, pktgen.Malform(base, kind, r))
		}
	}
	for _, n := range []int{0, 1, 13, 14, 33, 39, 40, 41, 48, len(base)} {
		out = append(out, append([]byte(nil), base[:n]...))
	}
	for i := 0; i < 10; i++ {
		pkt := make([]byte, 40+r.Intn(72))
		r.Read(pkt)
		out = append(out, pkt)
	}
	return out
}

// fuzzTraffic sandwiches the fuzz input between two well-formed packets
// of one established flow, so it interacts with live map state, and
// appends a tail of the same well-formed packet so that the interpreter
// recycles the fuzzed frame's job for one of them: it is offered one
// frame a cycle and hands each injection the job that retired the cycle
// before, so the tail only has to outlast the fuzzed frame. That frame
// retires one pipeline depth after injection plus one replay for each
// flush it is caught in — at most two here, the first sighting of the
// established flow and of whatever flow the fuzzer forged — and three
// times the deepest pipeline covers it with room to spare. Whatever the
// fuzzed frame left in its job then has to survive the comparison of a
// well-formed frame.
func fuzzTraffic(t testing.TB, prog *ebpf.Program, well []byte) func(data []byte) [][]byte {
	depth := 0
	for _, opts := range []core.Options{{}, {DisableBoundsElision: true}} {
		pl, err := core.Compile(prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(pl.Stages) > depth {
			depth = len(pl.Stages)
		}
	}
	return func(data []byte) [][]byte {
		packets := [][]byte{well, data, well}
		for i := 0; i < 3*depth; i++ {
			packets = append(packets, well)
		}
		return packets
	}
}

// staleFuzzTraffic is StalePointerZoo's scenario with the fuzzed frame
// right behind the reader: one more younger packet, of whatever flow the
// fuzzer forged, between the lookup and the late adds. Whichever key it
// touches or inserts, the lookups and inserts that decide the two
// evictions keep their order, so the final map state is the sequential
// one.
func staleFuzzTraffic(data []byte) [][]byte {
	frames := StalePointerFrames([]byte{1, 2, 3, 4, 5, 5})
	return slices.Insert(frames, 1, data)
}

// FuzzDifferential feeds arbitrary (mostly malformed) packets to the
// firewall on both engines, inside fuzzTraffic's sandwich. Two oracles
// per input:
//
//  1. With bounds-check elision disabled the pipeline executes the
//     program's own checks, so verdicts, bytes and final map state must
//     match the reference exactly, whatever the fuzzer invents.
//  2. With elision on (the paper's default) the hardware per-access
//     bounds check replaces the firewall's elided 42-byte guard, so
//     packets shorter than the guard span may legally diverge: the
//     hardware drops on a faulting access, or runs the program to its
//     verdict when every live access happens to land in bounds. At or
//     beyond the guard span, verdicts must match exactly.
func FuzzDifferential(f *testing.F) {
	for _, pkt := range fuzzSeedCorpus(0xF022) {
		f.Add(pkt)
	}
	app, ok := apps.ByName("firewall")
	if !ok {
		f.Fatal("unknown app firewall")
	}
	prog, err := app.Program()
	if err != nil {
		f.Fatal(err)
	}
	well := pktgen.Build(pktgen.PacketSpec{
		Flow:     pktgen.Flow{SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: 4242, DstPort: 8080, Proto: 17},
		TotalLen: 64,
	})
	traffic := fuzzTraffic(f, prog, well)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			t.Skip("oversized fuzz input")
		}
		packets := traffic(data)

		exact := Config{opts: core.Options{DisableBoundsElision: true}, maxCycles: 1 << 18}
		if err := diffProgram(prog, app.SetupHost, packets, exact); err != nil {
			t.Fatal(err)
		}
		// The same oracle on the program that holds a value pointer
		// across an eviction: it checks its own bounds, so it is exact.
		if err := DiffAppThreeWay(StalePointerZoo(), staleFuzzTraffic(data), exact); err != nil {
			t.Fatalf("stale pointer zoo: %v", err)
		}

		refs, _, err := runReference(prog, app.SetupHost, packets)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		outs, _, err := compileAndRun(prog, interpreter, app.SetupHost, packets, Config{maxCycles: 1 << 18})
		if err != nil {
			t.Fatalf("pipeline: %v", err)
		}
		// The span the firewall's elided bounds check guards:
		// eth(14) + ip(20) + udp(8).
		const guardSpan = 42
		for i := range packets {
			if outs[i].Action == refs[i].Action {
				continue
			}
			if len(packets[i]) >= guardSpan {
				t.Fatalf("packet %d (%dB, inside the elided guard span): action %v, reference %v",
					i, len(packets[i]), outs[i].Action, refs[i].Action)
			}
		}
	})
}

// FuzzFastPath is the interpreter-vs-compiled differential fuzzer:
// arbitrary (mostly malformed) packets run through the cycle-accurate
// simulator and the compiled fast path, inside fuzzTraffic's sandwich
// (the interpreter leg recycles the fuzzed frame's job; the fast path
// reuses its one state for every frame anyway). Unlike
// FuzzDifferential's vm oracle,
// this pair is exact for every input: both engines execute the same
// specialized pipeline including the hardware per-access bounds check
// that stands in for bounds-elided program checks, so verdicts,
// rewritten bytes and final map state must match bit for bit even on
// truncated frames where the vm reference legally diverges.
func FuzzFastPath(f *testing.F) {
	for _, pkt := range fuzzSeedCorpus(0xFA57) {
		f.Add(pkt)
	}
	app, ok := apps.ByName("firewall")
	if !ok {
		f.Fatal("unknown app firewall")
	}
	prog, err := app.Program()
	if err != nil {
		f.Fatal(err)
	}
	well := pktgen.Build(pktgen.PacketSpec{
		Flow:     pktgen.Flow{SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: 4242, DstPort: 8080, Proto: 17},
		TotalLen: 64,
	})
	traffic := fuzzTraffic(f, prog, well)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			t.Skip("oversized fuzz input")
		}
		packets := traffic(data)
		if err := diffProgramFastPath(prog, app.SetupHost, packets, Config{maxCycles: 1 << 18}); err != nil {
			t.Fatal(err)
		}
		// And with the compiler's bounds elision off, so the fuzzer also
		// exercises closures specialized from the unpruned check chain.
		noElide := Config{opts: core.Options{DisableBoundsElision: true}, maxCycles: 1 << 18}
		if err := diffProgramFastPath(prog, app.SetupHost, packets, noElide); err != nil {
			t.Fatal(err)
		}
		// And on the program that holds a value pointer across an
		// eviction, where the one-burst table is the sequential answer.
		stale := StalePointerZoo()
		staleProg, err := stale.Program()
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []Config{{maxCycles: 1 << 18}, noElide} {
			if err := diffProgramFastPath(staleProg, stale.SetupHost, staleFuzzTraffic(data), cfg); err != nil {
				t.Fatalf("stale pointer zoo: %v", err)
			}
		}
	})
}
