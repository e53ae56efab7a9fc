package pktgen

import (
	"math/rand"

	"ehdl/internal/ebpf"
)

// TraceProfile captures the published statistics of a real packet trace;
// NewTrace generates traffic matching them. The two profiles below
// stand in for the CAIDA and MAWI captures of Table 2 (the originals are
// gated datasets): what the leaky-bucket experiment depends on is the
// flow count, the mean packet size and the heavy-tailed flow-size
// distribution, all of which the paper reports.
type TraceProfile struct {
	Name string
	// Flows is the number of distinct 5-tuple flows in the trace.
	Flows int
	// MeanPacketLen is the average frame size in bytes.
	MeanPacketLen int
	// MinLen/MaxLen bound the size distribution.
	MinLen, MaxLen int
	// ZipfS shapes the flow-size distribution (heavier tail for values
	// closer to 1).
	ZipfS float64
	// TCPFraction of packets use TCP, the rest UDP.
	TCPFraction float64
	Seed        int64
}

// CAIDAProfile mirrors caida_20190117-134900 as described in Section
// 5.3: 184305 five-tuple flows, 411-byte average packets.
func CAIDAProfile() TraceProfile {
	return TraceProfile{
		Name:          "caida_20190117-134900 (synthetic)",
		Flows:         184305,
		MeanPacketLen: 411,
		MinLen:        60,
		MaxLen:        1514,
		ZipfS:         1.02,
		TCPFraction:   0.85,
		Seed:          190117,
	}
}

// MAWIProfile mirrors mawi_202103221400: 163697 flows, 573-byte average
// packets.
func MAWIProfile() TraceProfile {
	return TraceProfile{
		Name:          "mawi_202103221400 (synthetic)",
		Flows:         163697,
		MeanPacketLen: 573,
		MinLen:        60,
		MaxLen:        1514,
		ZipfS:         1.05,
		TCPFraction:   0.80,
		Seed:          20210322,
	}
}

// Trace is a replayable synthetic capture.
type Trace struct {
	profile TraceProfile
	rng     *rand.Rand
	zipf    *rand.Zipf

	// size distribution: a bimodal mix of small (ACK-sized) and large
	// (MTU-sized) packets tuned to hit the profile's mean.
	pSmall float64
	// tmpl holds one template per protocol and size, indexed
	// [tcp][small].
	tmpl             [2][2]template
	generatedBytes   int64
	generatedPackets int64
}

// NewTrace builds a trace replayer for a profile.
func NewTrace(p TraceProfile) *Trace {
	rng := rand.New(rand.NewSource(p.Seed))
	t := &Trace{
		profile: p,
		rng:     rng,
		zipf:    rand.NewZipf(rng, p.ZipfS, 1, uint64(p.Flows-1)),
	}
	// Solve the bimodal mix: pSmall*small + (1-pSmall)*big = mean.
	t.pSmall = float64(p.MaxLen-p.MeanPacketLen) / float64(p.MaxLen-p.MinLen)
	for tcp, proto := range []uint8{ebpf.IPProtoUDP, ebpf.IPProtoTCP} {
		for small, size := range []int{p.MaxLen, p.MinLen} {
			flow := Flow{DstIP: 0xc0_a8_00_01, DstPort: 443, Proto: proto}
			t.tmpl[tcp][small] = newTemplate(PacketSpec{Flow: flow, TotalLen: size})
		}
	}
	return t
}

// Next produces the next packet of the replay.
func (t *Trace) Next() []byte {
	flowIdx := uint32(t.zipf.Uint64())
	tcp, small := 0, 0
	if t.rng.Float64() < t.profile.TCPFraction {
		tcp = 1
	}
	if t.rng.Float64() < t.pSmall {
		small = 1
	}
	tmpl := &t.tmpl[tcp][small]
	t.generatedPackets++
	t.generatedBytes += int64(len(tmpl.frame))
	return tmpl.stamp(nil, 0x0a_00_00_00+flowIdx, uint16(1024+flowIdx%60000))
}

// MeanLen reports the observed mean packet length so far.
func (t *Trace) MeanLen() float64 {
	if t.generatedPackets == 0 {
		return 0
	}
	return float64(t.generatedBytes) / float64(t.generatedPackets)
}
