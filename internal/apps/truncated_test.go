package apps

import (
	"bytes"
	"math/rand"
	"testing"

	"ehdl/internal/core"
	"ehdl/internal/ebpf"
	"ehdl/internal/hwsim"
	"ehdl/internal/pktgen"
	"ehdl/internal/vm"
)

// cutSeries returns base truncated at every length: zero-length, every
// mid-Ethernet, mid-IPv4 and mid-transport offset, up to the full frame.
func cutSeries(base []byte) [][]byte {
	var out [][]byte
	for n := 0; n <= len(base); n++ {
		out = append(out, append([]byte(nil), base[:n]...))
	}
	return out
}

// refActions runs packets through the reference VM and returns the
// verdicts. Truncated frames must resolve through the programs' own
// bounds checks: an interpreter fault here is an app bug.
func refActions(t *testing.T, app *App, packets [][]byte) []ebpf.XDPAction {
	t.Helper()
	prog := mustProgram(t, app)
	env, err := vm.NewEnv(prog)
	if err != nil {
		t.Fatal(err)
	}
	env.Now = func() uint64 { return 0 }
	if err := app.Setup(env.Maps); err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]ebpf.XDPAction, len(packets))
	for i, data := range packets {
		res, err := m.Run(vm.NewPacket(data))
		if err != nil {
			t.Fatalf("%s: %d-byte cut faulted the interpreter: %v", app.Name, len(data), err)
		}
		if res.Action > ebpf.XDPRedirect {
			t.Fatalf("%s: %d-byte cut produced illegal verdict %d", app.Name, len(data), res.Action)
		}
		out[i] = res.Action
	}
	return out
}

// hwActions runs packets through the compiled pipeline and returns the
// per-packet results and final stats. Any Step error is a failure: a
// damaged frame must never wedge or fault the hardware.
func hwActions(t *testing.T, app *App, packets [][]byte, opts core.Options, cfg hwsim.Config) ([]hwsim.Result, hwsim.Stats) {
	t.Helper()
	pl, err := core.Compile(mustProgram(t, app), opts)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := hwsim.New(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Setup(sim.Maps()); err != nil {
		t.Fatal(err)
	}
	sim.SetClock(func() uint64 { return 0 })
	var results []hwsim.Result
	sim.OnComplete(func(r hwsim.Result) { results = append(results, r) })
	for _, data := range packets {
		for !sim.InputFree() {
			if err := sim.Step(); err != nil {
				t.Fatalf("%s: %v", app.Name, err)
			}
		}
		sim.Inject(data)
		if err := sim.Step(); err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
	}
	if err := sim.RunToCompletion(1 << 22); err != nil {
		t.Fatalf("%s: %v", app.Name, err)
	}
	if len(results) != len(packets) {
		t.Fatalf("%s: completed %d of %d packets", app.Name, len(results), len(packets))
	}
	return results, sim.Stats()
}

// TestTruncatedPacketsEveryApp cuts a representative frame of each app
// at every possible length and demands bit-identical verdicts between
// the reference VM and the pipeline. Bounds-check elision is disabled so
// the programs' own checks stay in the hardware and the two
// implementations must agree on every cut, zero-length included.
func TestTruncatedPacketsEveryApp(t *testing.T) {
	for _, app := range append(All(), Toy(), LeakyBucket()) {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			packets := cutSeries(trafficFor(app, 1, 21)[0])
			refs := refActions(t, app, packets)
			results, _ := hwActions(t, app, packets,
				core.Options{DisableBoundsElision: true}, hwsim.Config{})
			for _, r := range results {
				if r.Action != refs[r.Seq] {
					t.Errorf("%d-byte cut: pipeline %v, reference %v",
						len(packets[r.Seq]), r.Action, refs[r.Seq])
				}
			}
		})
	}
}

// TestTruncatedOOBResolvesToConfiguredAction exercises the paper's
// Section 4.4 semantics: with bounds checks elided, a frame access past
// the packet end is caught by the hardware bounds check and the packet
// retires as XDP_DROP — never a simulator error. The
// elided software check is conservative (it covers the longest header
// chain) while the hardware checks each actual access, so a mid-cut
// frame may legitimately complete where the reference passed it; the
// invariants that must hold for every app are pinned below.
func TestTruncatedOOBResolvesToConfiguredAction(t *testing.T) {
	const oob = ebpf.XDPDrop
	for _, app := range append(All(), Toy(), LeakyBucket()) {
		packets := cutSeries(trafficFor(app, 1, 21)[0])
		refs := refActions(t, app, packets)
		results, stats := hwActions(t, app, packets,
			core.Options{}, hwsim.Config{})
		for _, r := range results {
			n := len(packets[r.Seq])
			if r.Action > ebpf.XDPRedirect {
				t.Fatalf("%s: %d-byte cut produced illegal verdict %d", app.Name, n, r.Action)
			}
			// A frame cut inside the Ethernet header cannot satisfy the
			// EtherType access every parser starts with: the hardware
			// check must fire and dispose of it.
			if n < pktgen.EthHeaderLen && r.Action != oob {
				t.Errorf("%s: %d-byte runt retired %v, want the OOB action %v",
					app.Name, n, r.Action, oob)
			}
			// The untruncated frame must agree with the reference.
			if n == len(packets[len(packets)-1]) && r.Action != refs[r.Seq] {
				t.Errorf("%s: full frame retired %v, reference %v", app.Name, r.Action, refs[r.Seq])
			}
		}
		if stats.MalformedDropped < uint64(pktgen.EthHeaderLen) {
			t.Errorf("%s: hardware bounds check disposed of %d frames, want at least the %d Ethernet runts",
				app.Name, stats.MalformedDropped, pktgen.EthHeaderLen)
		}
	}
}

// TestTruncatedVLANPath cuts a tagged frame through the 802.1Q parse
// path, which shifts every header offset by four bytes.
func TestTruncatedVLANPath(t *testing.T) {
	app := Suricata()
	flow := pktgen.Flow{SrcIP: 7, DstIP: 8, SrcPort: 9, DstPort: 10, Proto: ebpf.IPProtoTCP}
	packets := cutSeries(pktgen.Build(pktgen.PacketSpec{Flow: flow, VLAN: 42, TotalLen: 100}))
	refs := refActions(t, app, packets)
	results, _ := hwActions(t, app, packets,
		core.Options{DisableBoundsElision: true}, hwsim.Config{})
	for _, r := range results {
		if r.Action != refs[r.Seq] {
			t.Errorf("%d-byte cut: pipeline %v, reference %v", len(packets[r.Seq]), r.Action, refs[r.Seq])
		}
	}
}

// TestMalformedKindsThroughEveryApp feeds every malformation class the
// fault injector can produce — truncations, bogus length fields, runt
// and jumbo frames — through every app's pipeline with default options.
// All of them must retire with legal verdicts and no simulator error.
func TestMalformedKindsThroughEveryApp(t *testing.T) {
	for _, app := range append(All(), Toy(), LeakyBucket()) {
		base := trafficFor(app, 1, 23)[0]
		var packets [][]byte
		rng := rand.New(rand.NewSource(23))
		for _, kind := range pktgen.MalformKinds() {
			for i := 0; i < 8; i++ {
				packets = append(packets, pktgen.Malform(base, kind, rng))
			}
		}
		results, _ := hwActions(t, app, packets, core.Options{}, hwsim.Config{})
		for _, r := range results {
			if r.Action > ebpf.XDPRedirect {
				t.Errorf("%s: malformed frame %d retired with illegal verdict %d", app.Name, r.Seq, r.Action)
			}
		}
		// The frames really were damaged: at least the truncations differ.
		damaged := 0
		for _, p := range packets {
			if !bytes.Equal(p, base) {
				damaged++
			}
		}
		if damaged < len(packets)/2 {
			t.Fatalf("%s: only %d/%d frames damaged", app.Name, damaged, len(packets))
		}
	}
}
