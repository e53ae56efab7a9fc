//go:build !race

package rss

import (
	"math/rand"
	"testing"

	"ehdl/internal/ebpf"
	"ehdl/internal/pktgen"
)

// TestHashPacketAllocatesNothing: every frame the dispatcher hashes,
// the ones that fall back to the unhashed steer included, costs no
// heap object — a malformed burst must not turn into GC work on the
// dispatch goroutine.
func TestHashPacketAllocatesNothing(t *testing.T) {
	h, err := NewHasher(nil)
	if err != nil {
		t.Fatal(err)
	}
	good := pktgen.Build(pktgen.PacketSpec{
		Flow:     pktgen.Flow{SrcIP: 0x0a000001, DstIP: 0xc0a80001, SrcPort: 1024, DstPort: 80, Proto: ebpf.IPProtoUDP},
		TotalLen: 64,
	})
	rng := rand.New(rand.NewSource(1))
	frames := map[string][]byte{
		"well-formed": good,
		"arp":         pktgen.Build(pktgen.PacketSpec{EtherType: 0x0806, TotalLen: 60}),
	}
	for _, kind := range pktgen.MalformKinds() {
		frames[kind.String()] = pktgen.Malform(good, kind, rng)
	}
	for name, pkt := range frames {
		if n := testing.AllocsPerRun(100, func() { h.HashPacket(pkt) }); n != 0 {
			t.Errorf("%s (%d bytes): HashPacket allocates %.1f objects per frame", name, len(pkt), n)
		}
	}
}
