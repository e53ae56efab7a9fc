package pktgen

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"ehdl/internal/ebpf"
)

func TestBuildUDPPacket(t *testing.T) {
	flow := Flow{SrcIP: 0x0a000001, DstIP: 0xc0a80001, SrcPort: 1234, DstPort: 80, Proto: ebpf.IPProtoUDP}
	pkt := Build(PacketSpec{Flow: flow, TotalLen: 64})
	if len(pkt) != 64 {
		t.Fatalf("len = %d", len(pkt))
	}
	if et := binary.BigEndian.Uint16(pkt[12:14]); et != ebpf.EthPIP {
		t.Errorf("ethertype = %#x", et)
	}
	if !VerifyIPChecksum(pkt) {
		t.Error("IP checksum invalid")
	}
	got, err := ParseFlow(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got != flow {
		t.Errorf("ParseFlow = %+v, want %+v", got, flow)
	}
}

func TestBuildTCPFlags(t *testing.T) {
	flow := Flow{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: ebpf.IPProtoTCP}
	pkt := Build(PacketSpec{Flow: flow, tcpFlags: 0x02})
	if pkt[EthHeaderLen+IPv4HeaderLen+13] != 0x02 {
		t.Error("SYN flag not set")
	}
	if len(pkt) != EthHeaderLen+IPv4HeaderLen+tcpHeaderLen {
		t.Errorf("default TCP length = %d", len(pkt))
	}
}

func TestBuildRaisesShortLengths(t *testing.T) {
	pkt := Build(PacketSpec{Flow: Flow{Proto: ebpf.IPProtoUDP}, TotalLen: 10})
	if len(pkt) < EthHeaderLen+IPv4HeaderLen+udpHeaderLen {
		t.Errorf("short spec produced %d bytes", len(pkt))
	}
}

func TestFlowReverse(t *testing.T) {
	f := Flow{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 17}
	r := f.Reverse()
	if r.SrcIP != 2 || r.DstIP != 1 || r.SrcPort != 4 || r.DstPort != 3 {
		t.Errorf("Reverse = %+v", r)
	}
	if r.Reverse() != f {
		t.Error("double reverse is not identity")
	}
}

func TestPropertyParseBuildRoundTrip(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, udp bool, extra uint8) bool {
		proto := uint8(ebpf.IPProtoTCP)
		if udp {
			proto = ebpf.IPProtoUDP
		}
		flow := Flow{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp, Proto: proto}
		pkt := Build(PacketSpec{Flow: flow, TotalLen: 64 + int(extra)})
		got, err := ParseFlow(pkt)
		return err == nil && got == flow && VerifyIPChecksum(pkt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(GeneratorConfig{Flows: 100, Seed: 5}).Batch(50)
	b := NewGenerator(GeneratorConfig{Flows: 100, Seed: 5}).Batch(50)
	for i := range a {
		if string(a[i]) != string(b[i]) {
			t.Fatal("same-seed generators diverged")
		}
	}
}

func TestGeneratorCoversFlows(t *testing.T) {
	g := NewGenerator(GeneratorConfig{Flows: 16, Seed: 1})
	seen := map[Flow]bool{}
	for i := 0; i < 1000; i++ {
		f, err := ParseFlow(g.Next())
		if err != nil {
			t.Fatal(err)
		}
		seen[f] = true
	}
	if len(seen) != 16 {
		t.Errorf("uniform generator hit %d of 16 flows", len(seen))
	}
}

func TestZipfSkew(t *testing.T) {
	g := NewGenerator(GeneratorConfig{Flows: 1000, Distribution: Zipf, Seed: 2})
	counts := map[uint32]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		f, _ := ParseFlow(g.Next())
		counts[f.SrcIP]++
	}
	top := 0
	for _, c := range counts {
		if c > top {
			top = c
		}
	}
	// Under 1/i the top flow takes ~1/ln(N) of traffic: far above 1/N.
	if float64(top)/n < 0.05 {
		t.Errorf("top flow share = %.3f; Zipf skew missing", float64(top)/n)
	}
	if len(counts) < 100 {
		t.Errorf("only %d distinct flows generated", len(counts))
	}
}

func TestLineRatePPS(t *testing.T) {
	pps := LineRatePPS(100e9, 64)
	if math.Abs(pps-148.8e6) > 0.2e6 {
		t.Errorf("line rate for 64B at 100G = %.2f Mpps, want ~148.8", pps/1e6)
	}
}

func TestTraceProfiles(t *testing.T) {
	for _, p := range []TraceProfile{CAIDAProfile(), MAWIProfile()} {
		tr := NewTrace(p)
		flows := map[Flow]bool{}
		for i := 0; i < 20000; i++ {
			pkt := tr.Next()
			flow, err := ParseFlow(pkt)
			if err != nil {
				t.Fatal(err)
			}
			flows[flow] = true
			if len(pkt) < p.MinLen || len(pkt) > p.MaxLen {
				t.Fatalf("%s: packet of %d bytes outside [%d,%d]", p.Name, len(pkt), p.MinLen, p.MaxLen)
			}
		}
		mean := tr.MeanLen()
		if math.Abs(mean-float64(p.MeanPacketLen)) > 25 {
			t.Errorf("%s: mean packet %.1fB, want ~%dB", p.Name, mean, p.MeanPacketLen)
		}
		if len(flows) < 1000 {
			t.Errorf("%s: only %d distinct flows in 20k packets", p.Name, len(flows))
		}
	}
}

func TestTraceFlowCountsMatchPaper(t *testing.T) {
	if CAIDAProfile().Flows != 184305 {
		t.Error("CAIDA flow count drifted from the paper's 184305")
	}
	if MAWIProfile().Flows != 163697 {
		t.Error("MAWI flow count drifted from the paper's 163697")
	}
}

func TestVLANTaggedPacket(t *testing.T) {
	flow := Flow{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: ebpf.IPProtoTCP}
	pkt := Build(PacketSpec{Flow: flow, VLAN: 100, TotalLen: 80})
	if et := binary.BigEndian.Uint16(pkt[12:14]); et != ebpf.EthPVLAN {
		t.Fatalf("outer ethertype = %#x", et)
	}
	if vid := binary.BigEndian.Uint16(pkt[14:16]) & 0x0fff; vid != 100 {
		t.Errorf("VID = %d", vid)
	}
	if et := binary.BigEndian.Uint16(pkt[16:18]); et != ebpf.EthPIP {
		t.Errorf("inner ethertype = %#x", et)
	}
	got, err := ParseFlow(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got != flow {
		t.Errorf("ParseFlow through the tag = %+v", got)
	}
}

// The generator's costs without the harness: a frame stamped into a
// reused arena, a frame in a slice of its own under Zipf, a generator
// over the benchmark's largest flow set and the shell workloads' ring.
func BenchmarkAppendNext(b *testing.B) {
	g := NewGenerator(GeneratorConfig{Flows: 10000, Seed: 1})
	arena := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.AppendNext(arena)
	}
}

func BenchmarkNextZipf(b *testing.B) {
	g := NewGenerator(GeneratorConfig{Flows: 50000, Distribution: Zipf, Seed: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

func BenchmarkNewGenerator(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewGenerator(GeneratorConfig{Flows: 50000, Distribution: Zipf, Seed: 1})
	}
}

func BenchmarkBatch(b *testing.B) {
	g := NewGenerator(GeneratorConfig{Flows: 10000, Seed: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Batch(16384)
	}
}
