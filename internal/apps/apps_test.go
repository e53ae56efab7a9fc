package apps

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ehdl/internal/core"
	"ehdl/internal/ebpf"
	"ehdl/internal/hwsim"
	"ehdl/internal/maps"
	"ehdl/internal/pktgen"
	"ehdl/internal/vm"
)

func mustProgram(t testing.TB, app *App) *ebpf.Program {
	t.Helper()
	prog, err := app.Program()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestAllAppsAssembleAndValidate(t *testing.T) {
	for _, app := range append(All(), Toy(), LeakyBucket()) {
		prog, err := app.Program()
		if err != nil {
			t.Errorf("%s: %v", app.Name, err)
			continue
		}
		if len(prog.Instructions) < 20 {
			t.Errorf("%s: only %d instructions; too small to be the real program", app.Name, len(prog.Instructions))
		}
	}
}

func TestAllAppsCompile(t *testing.T) {
	for _, app := range append(All(), Toy(), LeakyBucket()) {
		pl, err := core.Compile(mustProgram(t, app), core.Options{})
		if err != nil {
			t.Errorf("%s: %v", app.Name, err)
			continue
		}
		t.Logf("%s: %d instructions -> %d stages (ILP max/avg %v), %d maps, %d framing NOPs",
			app.Name, len(pl.Prog.Instructions), pl.NumStages(),
			func() string { m, a := pl.ILP(); return formatILP(m, a) }(), len(pl.Maps), pl.FramingNOPs)
	}
}

func formatILP(max int, avg float64) string {
	return string(rune('0'+max)) + "/" + string(rune('0'+int(avg)))
}

// differential runs an app's traffic through both the reference VM and
// the compiled pipeline and compares everything observable.
func differential(t *testing.T, app *App, packets [][]byte) hwsim.Stats {
	t.Helper()
	prog := mustProgram(t, app)

	refEnv, err := vm.NewEnv(prog)
	if err != nil {
		t.Fatal(err)
	}
	refEnv.Now = func() uint64 { return 0 }
	if err := app.Setup(refEnv.Maps); err != nil {
		t.Fatal(err)
	}
	machine, err := vm.New(prog, refEnv)
	if err != nil {
		t.Fatal(err)
	}
	type refOut struct {
		action   ebpf.XDPAction
		redirect uint32
		data     []byte
	}
	refs := make([]refOut, len(packets))
	for i, data := range packets {
		pkt := vm.NewPacket(data)
		res, err := machine.Run(pkt)
		if err != nil {
			t.Fatalf("%s: reference packet %d: %v", app.Name, i, err)
		}
		refs[i] = refOut{action: res.Action, redirect: res.RedirectIfindex, data: append([]byte(nil), pkt.Bytes()...)}
	}

	pl, err := core.Compile(prog, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := hwsim.New(pl, hwsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Setup(sim.Maps()); err != nil {
		t.Fatal(err)
	}
	sim.KeepData(true)
	var results []hwsim.Result
	sim.OnComplete(func(r hwsim.Result) { results = append(results, r) })
	// Pin the clock for determinism against the reference.
	pinned := uint64(0)
	sim.SetClock(func() uint64 { return pinned })

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
	if err := sim.RunToCompletion(1 << 22); err != nil {
		t.Fatal(err)
	}

	if len(results) != len(packets) {
		t.Fatalf("%s: completed %d of %d packets", app.Name, len(results), len(packets))
	}
	for _, r := range results {
		ref := refs[r.Seq]
		if r.Action != ref.action {
			t.Fatalf("%s: packet %d action %v, reference %v", app.Name, r.Seq, r.Action, ref.action)
		}
		if r.Action == ebpf.XDPRedirect && r.RedirectIfindex != ref.redirect {
			t.Fatalf("%s: packet %d redirect %d, reference %d", app.Name, r.Seq, r.RedirectIfindex, ref.redirect)
		}
		if !bytes.Equal(r.Data, ref.data) {
			t.Fatalf("%s: packet %d bytes differ\npipeline:  %x\nreference: %x", app.Name, r.Seq, r.Data, ref.data)
		}
	}
	compareMaps(t, app.Name, refEnv.Maps, sim.Maps())
	return sim.Stats()
}

func compareMaps(t *testing.T, name string, ref, got *maps.Set) {
	t.Helper()
	for id := 0; id < ref.Len(); id++ {
		rm, _ := ref.ByID(id)
		gm, _ := got.ByID(id)
		if rm.Len() != gm.Len() {
			t.Fatalf("%s: map %d has %d entries, reference %d", name, id, gm.Len(), rm.Len())
		}
		rm.Iterate(func(k, v []byte) bool {
			gv, ok := gm.Lookup(k)
			if !ok {
				t.Fatalf("%s: map %d key %x missing", name, id, k)
			}
			if !bytes.Equal(gv, v) {
				t.Fatalf("%s: map %d key %x = %x, reference %x", name, id, k, gv, v)
			}
			return true
		})
	}
}

func trafficFor(app *App, n int, seed int64) [][]byte {
	cfg := app.Traffic
	cfg.Seed = seed
	gen := pktgen.NewGenerator(cfg)
	return gen.Batch(n)
}

func TestFirewallDifferential(t *testing.T) {
	app := Firewall()
	packets := trafficFor(app, 400, 3)
	// Mix in return-direction traffic so the reverse-key path runs.
	gen := pktgen.NewGenerator(app.Traffic)
	for i := 0; i < 100; i++ {
		f := gen.FlowAt(i % gen.FlowCount()).Reverse()
		packets = append(packets, pktgen.Build(pktgen.PacketSpec{Flow: f, TotalLen: 64}))
	}
	differential(t, app, packets)
}

func TestFirewallSemantics(t *testing.T) {
	app := Firewall()
	prog := mustProgram(t, app)
	env, _ := vm.NewEnv(prog)
	m, _ := vm.New(prog, env)

	fwd := pktgen.Flow{SrcIP: 0x0a000001, DstIP: 0xc0a80001, SrcPort: 5000, DstPort: 8080, Proto: ebpf.IPProtoUDP}
	// First packet establishes state and is forwarded.
	res, err := m.Run(vm.NewPacket(pktgen.Build(pktgen.PacketSpec{Flow: fwd, TotalLen: 64})))
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != ebpf.XDPTx {
		t.Fatalf("first packet action = %v", res.Action)
	}
	// Return traffic matches the reverse key.
	res, _ = m.Run(vm.NewPacket(pktgen.Build(pktgen.PacketSpec{Flow: fwd.Reverse(), TotalLen: 64})))
	if res.Action != ebpf.XDPTx {
		t.Fatalf("return packet action = %v", res.Action)
	}
	// Unsolicited traffic to a privileged port is dropped.
	bad := pktgen.Flow{SrcIP: 9, DstIP: 8, SrcPort: 7, DstPort: 22, Proto: ebpf.IPProtoUDP}
	res, _ = m.Run(vm.NewPacket(pktgen.Build(pktgen.PacketSpec{Flow: bad, TotalLen: 64})))
	if res.Action != ebpf.XDPDrop {
		t.Fatalf("unsolicited privileged-port packet action = %v", res.Action)
	}
	// Non-IPv4 passes to the kernel.
	res, _ = m.Run(vm.NewPacket(pktgen.Build(pktgen.PacketSpec{EtherType: ebpf.EthPARP, TotalLen: 64})))
	if res.Action != ebpf.XDPPass {
		t.Fatalf("ARP action = %v", res.Action)
	}
}

func TestRouterDifferential(t *testing.T) {
	app := Router()
	differential(t, app, trafficFor(app, 400, 4))
}

func TestRouterSemantics(t *testing.T) {
	app := Router()
	prog := mustProgram(t, app)
	env, _ := vm.NewEnv(prog)
	if err := app.Setup(env.Maps); err != nil {
		t.Fatal(err)
	}
	m, _ := vm.New(prog, env)

	flow := pktgen.Flow{SrcIP: 0x0a000002, DstIP: 0xc0a80077, SrcPort: 1, DstPort: 2, Proto: ebpf.IPProtoUDP}
	pkt := vm.NewPacket(pktgen.Build(pktgen.PacketSpec{Flow: flow, TotalLen: 64, TTL: 17}))
	res, err := m.Run(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != ebpf.XDPRedirect {
		t.Fatalf("action = %v", res.Action)
	}
	if res.RedirectIfindex != 2 {
		t.Fatalf("redirect ifindex = %d, want 2 (the /16 route)", res.RedirectIfindex)
	}
	out := pkt.Bytes()
	// Destination MAC rewritten to the route's gateway.
	if !bytes.Equal(out[0:6], []byte{0x02, 0, 0, 0, 0, 2}) {
		t.Errorf("dst MAC = %x", out[0:6])
	}
	if out[22] != 16 {
		t.Errorf("TTL = %d, want 16", out[22])
	}
	// The incremental checksum update must keep the header valid.
	if !pktgen.VerifyIPChecksum(out) {
		t.Error("IP checksum invalid after TTL decrement")
	}
	// Expired TTL passes to the kernel.
	pkt = vm.NewPacket(pktgen.Build(pktgen.PacketSpec{Flow: flow, TotalLen: 64, TTL: 1}))
	res, _ = m.Run(pkt)
	if res.Action != ebpf.XDPPass {
		t.Errorf("TTL=1 action = %v", res.Action)
	}
}

func TestTunnelDifferential(t *testing.T) {
	app := Tunnel()
	differential(t, app, trafficFor(app, 300, 5))
}

func TestTunnelSemantics(t *testing.T) {
	app := Tunnel()
	prog := mustProgram(t, app)
	env, _ := vm.NewEnv(prog)
	if err := app.Setup(env.Maps); err != nil {
		t.Fatal(err)
	}
	m, _ := vm.New(prog, env)

	flow := pktgen.Flow{SrcIP: 0x0a000009, DstIP: 0xc0a80001, SrcPort: 1000, DstPort: 80, Proto: ebpf.IPProtoUDP}
	in := pktgen.Build(pktgen.PacketSpec{Flow: flow, TotalLen: 100})
	pkt := vm.NewPacket(in)
	res, err := m.Run(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != ebpf.XDPTx {
		t.Fatalf("action = %v", res.Action)
	}
	out := pkt.Bytes()
	if len(out) != len(in)+20 {
		t.Fatalf("encapsulated length = %d, want %d", len(out), len(in)+20)
	}
	// Outer header: IPIP protocol, valid checksum, configured endpoints.
	if out[23] != ebpf.IPProtoIPIP {
		t.Errorf("outer protocol = %d, want IPIP", out[23])
	}
	if !pktgen.VerifyIPChecksum(out) {
		t.Error("outer IP checksum invalid")
	}
	ep := defaultEndpoints()[0]
	if !bytes.Equal(out[26:30], ep.OuterSrc[:]) || !bytes.Equal(out[30:34], ep.OuterDst[:]) {
		t.Errorf("outer addresses = %x -> %x", out[26:30], out[30:34])
	}
	if !bytes.Equal(out[0:6], ep.GatewayMAC[:]) {
		t.Errorf("gateway MAC = %x", out[0:6])
	}
	// The inner packet is intact after the outer header.
	if !bytes.Equal(out[34:], in[14:]) {
		t.Error("inner packet corrupted by encapsulation")
	}
	// Outer length field covers inner IP + 20.
	outerLen := binary.BigEndian.Uint16(out[16:18])
	innerLen := binary.BigEndian.Uint16(in[16:18])
	if outerLen != innerLen+20 {
		t.Errorf("outer length = %d, want %d", outerLen, innerLen+20)
	}
	// Non-tunnelled destinations pass through.
	other := flow
	other.DstIP = 0x08080808
	pkt = vm.NewPacket(pktgen.Build(pktgen.PacketSpec{Flow: other, TotalLen: 100}))
	res, _ = m.Run(pkt)
	if res.Action != ebpf.XDPPass {
		t.Errorf("non-tunnelled action = %v", res.Action)
	}
}

func TestDNATDifferential(t *testing.T) {
	app := DNAT()
	// Few flows back to back: exercises the data-plane binding updates
	// and their flush hazards.
	cfg := app.Traffic
	cfg.Flows = 8
	cfg.Seed = 6
	gen := pktgen.NewGenerator(cfg)
	differential(t, app, gen.Batch(400))
}

func TestDNATSemantics(t *testing.T) {
	app := DNAT()
	prog := mustProgram(t, app)
	env, _ := vm.NewEnv(prog)
	m, _ := vm.New(prog, env)

	flow := pktgen.Flow{SrcIP: 0x0a000001, DstIP: 0x08080808, SrcPort: 5555, DstPort: 53, Proto: ebpf.IPProtoUDP}
	first := vm.NewPacket(pktgen.Build(pktgen.PacketSpec{Flow: flow, TotalLen: 64}))
	res, err := m.Run(first)
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != ebpf.XDPTx {
		t.Fatalf("action = %v", res.Action)
	}
	natted, err := pktgen.ParseFlow(first.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if natted.SrcPort == flow.SrcPort {
		t.Error("source port not translated")
	}
	if natted.SrcPort < 0xC000 {
		t.Errorf("translated port %d outside the dynamic range", natted.SrcPort)
	}
	// A second packet of the same flow gets the same binding.
	second := vm.NewPacket(pktgen.Build(pktgen.PacketSpec{Flow: flow, TotalLen: 64}))
	if _, err := m.Run(second); err != nil {
		t.Fatal(err)
	}
	again, _ := pktgen.ParseFlow(second.Bytes())
	if again.SrcPort != natted.SrcPort {
		t.Errorf("binding unstable: %d then %d", natted.SrcPort, again.SrcPort)
	}
	// The UDP checksum is cleared.
	if cs := binary.BigEndian.Uint16(first.Bytes()[40:42]); cs != 0 {
		t.Errorf("UDP checksum = %#x, want 0", cs)
	}
}

func TestSuricataDifferential(t *testing.T) {
	app := Suricata()
	cfg := app.Traffic
	cfg.Flows = 64
	cfg.Seed = 7
	gen := pktgen.NewGenerator(cfg)
	packets := gen.Batch(300)
	// The differential harness applies Setup to both sides; bypass half
	// the flows there.
	app.SetupHost = func(set *maps.Set) error {
		for i := 0; i < 32; i++ {
			if err := BypassFlow(set, gen.FlowAt(i)); err != nil {
				return err
			}
		}
		return nil
	}
	differential(t, app, packets)
}

func TestSuricataSemantics(t *testing.T) {
	app := Suricata()
	prog := mustProgram(t, app)
	env, _ := vm.NewEnv(prog)
	m, _ := vm.New(prog, env)

	flow := pktgen.Flow{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: ebpf.IPProtoTCP}
	// Unclassified flow passes to the IDS.
	res, err := m.Run(vm.NewPacket(pktgen.Build(pktgen.PacketSpec{Flow: flow, TotalLen: 128})))
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != ebpf.XDPPass {
		t.Fatalf("unclassified action = %v", res.Action)
	}
	// Bypass it, then packets drop with accounting.
	if err := BypassFlow(env.Maps, flow); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res, _ = m.Run(vm.NewPacket(pktgen.Build(pktgen.PacketSpec{Flow: flow, TotalLen: 128})))
		if res.Action != ebpf.XDPDrop {
			t.Fatalf("bypassed action = %v", res.Action)
		}
	}
	pkts, bytesSeen, ok := BypassCounters(env.Maps, flow)
	if !ok || pkts != 3 || bytesSeen != 3*128 {
		t.Errorf("bypass counters = %d pkts / %d bytes", pkts, bytesSeen)
	}
}

func TestLeakyBucketDifferential(t *testing.T) {
	app := LeakyBucket()
	cfg := app.Traffic
	cfg.Flows = 16
	cfg.Seed = 8
	gen := pktgen.NewGenerator(cfg)
	differential(t, app, gen.Batch(400))
}

func TestLeakyBucketPolices(t *testing.T) {
	app := LeakyBucket()
	prog := mustProgram(t, app)
	env, _ := vm.NewEnv(prog)
	env.Now = func() uint64 { return 0 } // no leak: every packet adds cost
	m, _ := vm.New(prog, env)

	flow := pktgen.Flow{SrcIP: 42, DstIP: 1, SrcPort: 1, DstPort: 1, Proto: ebpf.IPProtoUDP}
	const capacity = 64 // the program's "over capacity" bound
	drops := 0
	for i := 0; i < 2*capacity; i++ {
		res, err := m.Run(vm.NewPacket(pktgen.Build(pktgen.PacketSpec{Flow: flow, TotalLen: 64})))
		if err != nil {
			t.Fatal(err)
		}
		if res.Action == ebpf.XDPDrop {
			drops++
		}
	}
	if drops == 0 {
		t.Error("a zero-leak bucket never policed")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"firewall", "router", "tunnel", "dnat", "suricata", "toy", "leakybucket"} {
		if _, ok := ByName(name); !ok {
			t.Errorf("ByName(%q) failed", name)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) succeeded")
	}
}

func TestDNATNotP4Expressible(t *testing.T) {
	if DNAT().P4Expressible {
		t.Error("DNAT must be marked inexpressible in SDNet P4 (Section 5)")
	}
	for _, app := range []*App{Firewall(), Router(), Tunnel(), Suricata()} {
		if !app.P4Expressible {
			t.Errorf("%s should be P4-expressible", app.Name)
		}
	}
}

func TestLoadBalancerSemantics(t *testing.T) {
	app := LoadBalancer()
	prog := mustProgram(t, app)
	env, _ := vm.NewEnv(prog)
	if err := app.Setup(env.Maps); err != nil {
		t.Fatal(err)
	}
	m, _ := vm.New(prog, env)

	backendOf := func(f pktgen.Flow) [4]byte {
		t.Helper()
		pkt := vm.NewPacket(pktgen.Build(pktgen.PacketSpec{Flow: f, TotalLen: 80}))
		res, err := m.Run(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Action != ebpf.XDPTx {
			t.Fatalf("VIP packet action = %v", res.Action)
		}
		out := pkt.Bytes()
		if out[23] != ebpf.IPProtoIPIP {
			t.Fatalf("outer proto = %d", out[23])
		}
		if !pktgen.VerifyIPChecksum(out) {
			t.Fatal("outer checksum invalid")
		}
		var be [4]byte
		copy(be[:], out[30:34])
		return be
	}

	// Same flow always lands on the same backend; the pool is covered
	// across flows.
	seen := map[[4]byte]int{}
	for i := 0; i < 64; i++ {
		f := pktgen.Flow{SrcIP: 0x0a000000 + uint32(i), DstIP: 0xc0a80001,
			SrcPort: uint16(1000 + i), DstPort: 8080, Proto: ebpf.IPProtoUDP}
		first := backendOf(f)
		if again := backendOf(f); again != first {
			t.Fatalf("flow %d flapped between backends %v and %v", i, first, again)
		}
		seen[first]++
	}
	if len(seen) != len(LBBackends) {
		t.Errorf("flows covered %d of %d backends", len(seen), len(LBBackends))
	}
	for be := range seen {
		found := false
		for _, want := range LBBackends {
			if be == want {
				found = true
			}
		}
		if !found {
			t.Errorf("unknown backend %v selected", be)
		}
	}
	// Hit counters account one increment per run.
	hits := LBBackendHits(env.Maps)
	var total uint64
	for _, h := range hits {
		total += h
	}
	if total != 2*64 {
		t.Errorf("hit counters sum to %d, want 128", total)
	}
	// Non-VIP traffic passes.
	pkt := vm.NewPacket(pktgen.Build(pktgen.PacketSpec{
		Flow: pktgen.Flow{SrcIP: 1, DstIP: 0x08080808, Proto: ebpf.IPProtoUDP}, TotalLen: 64}))
	res, _ := m.Run(pkt)
	if res.Action != ebpf.XDPPass {
		t.Errorf("non-VIP action = %v", res.Action)
	}
}

func TestLoadBalancerDifferential(t *testing.T) {
	app := LoadBalancer()
	differential(t, app, trafficFor(app, 300, 9))
}

func TestLoadBalancerCompiles(t *testing.T) {
	pl, err := core.Compile(mustProgram(t, LoadBalancer()), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The runtime modulo forces a divider block; the pipeline must still
	// be strictly forward.
	if pl.NumStages() < 40 {
		t.Errorf("stages = %d; the encapsulating balancer should be deep", pl.NumStages())
	}
}

func TestSuricataVLANPath(t *testing.T) {
	app := Suricata()
	prog := mustProgram(t, app)
	env, _ := vm.NewEnv(prog)
	m, _ := vm.New(prog, env)

	flow := pktgen.Flow{SrcIP: 7, DstIP: 8, SrcPort: 9, DstPort: 10, Proto: ebpf.IPProtoTCP}
	tagged := func() *vm.Packet {
		return vm.NewPacket(pktgen.Build(pktgen.PacketSpec{Flow: flow, VLAN: 42, TotalLen: 100}))
	}
	// Unclassified tagged traffic passes.
	res, err := m.Run(tagged())
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != ebpf.XDPPass {
		t.Fatalf("tagged unclassified action = %v", res.Action)
	}
	// Bypassing the flow drops tagged packets too: both parse paths key
	// the same table.
	if err := BypassFlow(env.Maps, flow); err != nil {
		t.Fatal(err)
	}
	res, _ = m.Run(tagged())
	if res.Action != ebpf.XDPDrop {
		t.Fatalf("tagged bypassed action = %v", res.Action)
	}
	// And the untagged packet of the same flow matches the same entry.
	res, _ = m.Run(vm.NewPacket(pktgen.Build(pktgen.PacketSpec{Flow: flow, TotalLen: 100})))
	if res.Action != ebpf.XDPDrop {
		t.Fatalf("untagged bypassed action = %v", res.Action)
	}
	pkts, _, ok := BypassCounters(env.Maps, flow)
	if !ok || pkts != 2 {
		t.Errorf("bypass packets = %d, want 2", pkts)
	}
}

func TestSuricataVLANDifferential(t *testing.T) {
	app := Suricata()
	gen := pktgen.NewGenerator(pktgen.GeneratorConfig{Flows: 16, Seed: 12, Proto: ebpf.IPProtoTCP})
	var packets [][]byte
	for i := 0; i < 200; i++ {
		f := gen.FlowAt(i % gen.FlowCount())
		vlan := uint16(0)
		if i%2 == 0 {
			vlan = 10
		}
		packets = append(packets, pktgen.Build(pktgen.PacketSpec{Flow: f, VLAN: vlan, TotalLen: 64 + i%128}))
	}
	app.SetupHost = func(set *maps.Set) error {
		for i := 0; i < 8; i++ {
			if err := BypassFlow(set, gen.FlowAt(i)); err != nil {
				return err
			}
		}
		return nil
	}
	differential(t, app, packets)
}
