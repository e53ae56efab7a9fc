package pktgen

import (
	"math/rand"

	"ehdl/internal/ebpf"
)

// Distribution selects how packets are spread over the flow set.
type Distribution int

// Flow distributions.
const (
	Uniform Distribution = iota
	Zipf                 // frequency of flow i proportional to 1/i (Appendix A.1)
)

// GeneratorConfig parameterises a traffic generator.
type GeneratorConfig struct {
	// Flows is the number of distinct 5-tuples.
	Flows int
	// Distribution spreads packets over flows.
	Distribution Distribution
	// PacketLen is the frame size of generated packets (default 64, the
	// line-rate worst case of the paper's testbed).
	PacketLen int
	// Proto is the transport protocol (default UDP).
	Proto uint8
	// Seed makes runs reproducible.
	Seed int64
}

// Generator produces a reproducible stream of packets over a flow set.
// Flow i of the set is arithmetic (FlowAt), and every packet is the
// generator's template frame stamped with its flow.
type Generator struct {
	cfg  GeneratorConfig
	rng  *rand.Rand
	zipf *rand.Zipf
	tmpl template
}

// NewGenerator builds a generator with a deterministic flow set.
func NewGenerator(cfg GeneratorConfig) *Generator {
	if cfg.Flows <= 0 {
		cfg.Flows = 1
	}
	if cfg.PacketLen == 0 {
		cfg.PacketLen = 64
	}
	if cfg.Proto == 0 {
		cfg.Proto = ebpf.IPProtoUDP
	}
	g := &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed + 1))}
	g.tmpl = newTemplate(PacketSpec{Flow: g.FlowAt(0), TotalLen: cfg.PacketLen})
	if cfg.Distribution == Zipf {
		// s slightly above 1 approximates the paper's 1/i law, which
		// rand.Zipf requires s > 1.
		g.zipf = rand.NewZipf(g.rng, 1.01, 1, uint64(cfg.Flows-1))
	}
	return g
}

// FlowCount returns the size of the flow set.
func (g *Generator) FlowCount() int { return g.cfg.Flows }

// FlowAt returns flow i of the set.
func (g *Generator) FlowAt(i int) Flow {
	return Flow{
		SrcIP:   flowSrcIP(i),
		DstIP:   0xc0_a8_00_01,
		SrcPort: flowSrcPort(i),
		DstPort: 8080,
		Proto:   g.cfg.Proto,
	}
}

// flowSrcIP and flowSrcPort are the two fields that tell flow i apart.
func flowSrcIP(i int) uint32   { return 0x0a_00_00_00 | uint32(i+1) }
func flowSrcPort(i int) uint16 { return uint16(1024 + i%60000) }

// nextFlow draws the index of the next flow per the configured
// distribution.
func (g *Generator) nextFlow() int {
	switch g.cfg.Distribution {
	case Zipf:
		return int(g.zipf.Uint64())
	default:
		return g.rng.Intn(g.cfg.Flows)
	}
}

// Next builds the next packet in a slice of its own.
func (g *Generator) Next() []byte {
	_, pkt := g.AppendNext(nil)
	return pkt
}

// AppendNext builds the next packet at the end of arena and returns the
// extended arena and the packet within it, capacity clipped so nothing
// can append into its neighbour.
func (g *Generator) AppendNext(arena []byte) (grown, pkt []byte) {
	i := g.nextFlow()
	grown = g.tmpl.stamp(arena, flowSrcIP(i), flowSrcPort(i))
	return grown, grown[len(arena):len(grown):len(grown)]
}

// Batch builds n packets, carved from one arena.
func (g *Generator) Batch(n int) [][]byte {
	out := make([][]byte, n)
	arena := make([]byte, 0, n*len(g.tmpl.frame))
	for i := range out {
		arena, out[i] = g.AppendNext(arena)
	}
	return out
}

// LineRatePPS returns the packets-per-second of a fully loaded link for
// a given frame size, accounting for the 20 bytes of per-frame overhead
// (preamble + IFG): 148.8 Mpps for 64-byte frames at 100 Gbps.
func LineRatePPS(linkBitsPerSec float64, frameLen int) float64 {
	wire := float64(frameLen+20) * 8
	return linkBitsPerSec / wire
}
