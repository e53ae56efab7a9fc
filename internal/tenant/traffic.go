package tenant

import (
	"encoding/binary"
	"slices"

	"ehdl/internal/ebpf"
	"ehdl/internal/pktgen"
)

// TrafficMux interleaves the tenants' traffic profiles into one
// deterministic arrival stream, the multi-tenant stand-in for the
// testbed's DPDK generator. Each tenant's packets come from its app's
// own generator (seeded from the mux seed and the tenant's position, so
// the stream is a pure function of the spec list and the seed), tagged
// with the tenant's VLAN on the wire. Interleaving is smooth weighted
// round-robin over the shares: fully deterministic, so a same-seed
// rerun — or a solo-tenant device fed the same mux — sees byte-
// identical arrivals in the same order.
type TrafficMux struct {
	specs  []Spec
	gens   []*pktgen.Generator
	weight []float64
	credit []float64
	total  float64
}

// NewTrafficMux builds the mux over a spec list. Specs with a
// non-positive Share weigh 1.
func NewTrafficMux(specs []Spec, seed int64) *TrafficMux {
	m := &TrafficMux{
		specs:  specs,
		gens:   make([]*pktgen.Generator, len(specs)),
		weight: make([]float64, len(specs)),
		credit: make([]float64, len(specs)),
	}
	for i, sp := range specs {
		traffic := sp.App.Traffic
		traffic.Seed = mix(seed + int64(i))
		m.gens[i] = pktgen.NewGenerator(traffic)
		w := sp.Share
		if w <= 0 {
			w = 1
		}
		m.weight[i] = w
		m.total += w
	}
	return m
}

// Next builds the next arrival in a slice of its own.
func (m *TrafficMux) Next() []byte {
	_, pkt := m.AppendNext(nil)
	return pkt
}

// AppendNext builds the next arrival at the end of arena
// (pktgen.Generator.AppendNext semantics): smooth weighted round-robin
// picks the tenant, its generator builds the frame behind four bytes of
// headroom, and the tenant's VLAN tag is written into the gap the MAC
// pair leaves when it slides forward — the frame is never re-copied.
func (m *TrafficMux) AppendNext(arena []byte) (grown, pkt []byte) {
	best := 0
	for i := range m.credit {
		m.credit[i] += m.weight[i]
		if m.credit[i] > m.credit[best] {
			best = i
		}
	}
	m.credit[best] -= m.total
	vlan := m.specs[best].VLAN
	if vlan == 0 {
		return m.gens[best].AppendNext(arena)
	}
	grown, _ = m.gens[best].AppendNext(append(arena, 0, 0, 0, 0))
	pkt = grown[len(arena):len(grown):len(grown)]
	tagVLAN(pkt, vlan)
	return grown, pkt
}

// tagVLAN tags, in place, an untagged frame that sits behind four bytes
// of headroom: the MAC pair slides forward over the headroom and the
// 802.1Q tag with the given VID is written into the gap at offset 12.
func tagVLAN(buf []byte, vid uint16) {
	copy(buf[:12], buf[4:16])
	binary.BigEndian.PutUint16(buf[12:14], ebpf.EthPVLAN)
	binary.BigEndian.PutUint16(buf[14:16], vid&0x0fff)
}

// Batch builds n arrivals carved from one arena. Tenants' frames differ
// in length, so the arena is sized from the first arrival and the
// frames are carved once the last one is in.
func (m *TrafficMux) Batch(n int) [][]byte {
	out := make([][]byte, n)
	ends := make([]int, n)
	var arena []byte
	for i := range ends {
		arena, _ = m.AppendNext(arena)
		if i == 0 {
			arena = slices.Grow(arena, (n-1)*len(arena))
		}
		ends[i] = len(arena)
	}
	start := 0
	for i, end := range ends {
		out[i] = arena[start:end:end]
		start = end
	}
	return out
}
