package pktgen

import (
	"math/rand"

	"ehdl/internal/ebpf"
)

// TraceProfile captures the published statistics of a real packet trace;
// SyntheticTrace generates traffic matching them. The two profiles below
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
	gen     *Generator

	// size distribution: a bimodal mix of small (ACK-sized) and large
	// (MTU-sized) packets tuned to hit the profile's mean.
	pSmall           float64
	smallLen, bigLen int
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
	t.smallLen, t.bigLen = p.MinLen, p.MaxLen
	t.pSmall = float64(t.bigLen-p.MeanPacketLen) / float64(t.bigLen-t.smallLen)
	return t
}

// Next produces the next packet of the replay.
func (t *Trace) Next() []byte {
	flowIdx := uint32(t.zipf.Uint64())
	proto := uint8(ebpf.IPProtoUDP)
	if t.rng.Float64() < t.profile.TCPFraction {
		proto = ebpf.IPProtoTCP
	}
	size := t.bigLen
	if t.rng.Float64() < t.pSmall {
		size = t.smallLen
	}
	flow := Flow{
		SrcIP:   0x0a_00_00_00 + flowIdx,
		DstIP:   0xc0_a8_00_01,
		SrcPort: uint16(1024 + flowIdx%60000),
		DstPort: 443,
		Proto:   proto,
	}
	t.generatedPackets++
	t.generatedBytes += int64(size)
	return Build(PacketSpec{Flow: flow, TotalLen: size})
}

// MeanLen reports the observed mean packet length so far.
func (t *Trace) MeanLen() float64 {
	if t.generatedPackets == 0 {
		return 0
	}
	return float64(t.generatedBytes) / float64(t.generatedPackets)
}
