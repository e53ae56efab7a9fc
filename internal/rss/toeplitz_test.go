package rss

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"ehdl/internal/ebpf"
	"ehdl/internal/pktgen"
)

// rssVector is one verification vector from the Microsoft RSS
// specification (the published test table for the default key).
type rssVector struct {
	srcIP, dstIP     [4]byte
	srcPort, dstPort uint16
	withPorts        uint32 // TCP/UDP hash over the 4-tuple
	addrsOnly        uint32 // IPv4-only hash over the address pair
}

var rssVectors = []rssVector{
	{[4]byte{66, 9, 149, 187}, [4]byte{161, 142, 100, 80}, 2794, 1766, 0x51ccc178, 0x323e8fc2},
	{[4]byte{199, 92, 111, 2}, [4]byte{65, 69, 140, 83}, 14230, 4739, 0xc626b0ea, 0xd718262a},
	{[4]byte{24, 19, 198, 95}, [4]byte{12, 22, 207, 184}, 12898, 38024, 0x5c2b394a, 0xd2d0a5de},
	{[4]byte{38, 27, 205, 30}, [4]byte{209, 142, 163, 6}, 48228, 2217, 0xafc7327f, 0x82989176},
	{[4]byte{153, 39, 163, 191}, [4]byte{202, 188, 127, 2}, 44251, 1303, 0x10e828a2, 0x5d1809c5},
}

func (v rssVector) tuple(ports bool) []byte {
	var b []byte
	b = append(b, v.srcIP[:]...)
	b = append(b, v.dstIP[:]...)
	if ports {
		b = binary.BigEndian.AppendUint16(b, v.srcPort)
		b = binary.BigEndian.AppendUint16(b, v.dstPort)
	}
	return b
}

func TestToeplitzSpecVectors(t *testing.T) {
	h, err := NewHasher(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range rssVectors {
		if got := h.sum(v.tuple(true)); got != v.withPorts {
			t.Errorf("vector %d with ports: got %#08x want %#08x", i, got, v.withPorts)
		}
		if got := h.sum(v.tuple(false)); got != v.addrsOnly {
			t.Errorf("vector %d addrs only: got %#08x want %#08x", i, got, v.addrsOnly)
		}
	}
}

// toeplitzSerial is the textbook bit-serial Toeplitz hash, the oracle
// for the table-driven Hasher: for every set bit of the input (MSB
// first), XOR in the 32-bit key window starting at that bit position.
// Inputs longer than len(key)-4 bytes are truncated, like Hasher.Sum.
func toeplitzSerial(key, input []byte) uint32 {
	if max := len(key) - 4; len(input) > max {
		input = input[:max]
	}
	var hash uint32
	// window is the 32-bit key view at the current bit offset; it
	// shifts left one bit per input bit, pulling the next key bit in
	// from the right.
	window := binary.BigEndian.Uint32(key)
	bitPos := 32
	for _, b := range input {
		for mask := byte(0x80); mask != 0; mask >>= 1 {
			if b&mask != 0 {
				hash ^= window
			}
			window <<= 1
			if bitPos < 8*len(key) {
				if key[bitPos/8]&(0x80>>(bitPos%8)) != 0 {
					window |= 1
				}
				bitPos++
			}
		}
	}
	return hash
}

// TestToeplitzSerialSpecVectors holds the oracle itself to the
// published vectors, so the property test below compares against a
// known-good reference.
func TestToeplitzSerialSpecVectors(t *testing.T) {
	for i, v := range rssVectors {
		if got := toeplitzSerial(defaultKey, v.tuple(true)); got != v.withPorts {
			t.Errorf("vector %d with ports: got %#08x want %#08x", i, got, v.withPorts)
		}
		if got := toeplitzSerial(defaultKey, v.tuple(false)); got != v.addrsOnly {
			t.Errorf("vector %d addrs only: got %#08x want %#08x", i, got, v.addrsOnly)
		}
	}
}

// TestToeplitzTableMatchesSerial: for random keys of every legal size
// class and every input length from empty to past the truncation point,
// the table-driven hash equals the bit-serial one.
func TestToeplitzTableMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		key := make([]byte, minKeyBytes+rng.Intn(64-minKeyBytes+1))
		rng.Read(key)
		h, err := NewHasher(key)
		if err != nil {
			t.Fatal(err)
		}
		if len(h.tab) != len(key)-4 {
			t.Fatalf("%d-byte key covers %d input bytes, want %d", len(key), len(h.tab), len(key)-4)
		}
		for n := 0; n <= len(h.tab)+8; n++ {
			input := make([]byte, n)
			rng.Read(input)
			if got, want := h.sum(input), toeplitzSerial(key, input); got != want {
				t.Fatalf("key %x input %x: table %#08x, serial %#08x", key, input, got, want)
			}
		}
	}
	// The all-ones input exercises every window of every position.
	h, _ := NewHasher(nil)
	ones := make([]byte, len(h.tab))
	for i := range ones {
		ones[i] = 0xff
	}
	if got, want := h.sum(ones), toeplitzSerial(defaultKey, ones); got != want {
		t.Errorf("all-ones input: table %#08x, serial %#08x", got, want)
	}
}

func TestHashPacketMatchesTupleHash(t *testing.T) {
	h, err := NewHasher(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range rssVectors {
		pkt := pktgen.Build(pktgen.PacketSpec{
			Flow: pktgen.Flow{
				SrcIP:   binary.BigEndian.Uint32(v.srcIP[:]),
				DstIP:   binary.BigEndian.Uint32(v.dstIP[:]),
				SrcPort: v.srcPort,
				DstPort: v.dstPort,
				Proto:   ebpf.IPProtoUDP,
			},
			TotalLen: 64,
		})
		got, ok := h.HashPacket(pkt)
		if !ok {
			t.Fatalf("vector %d: packet did not parse", i)
		}
		if got != v.withPorts {
			t.Errorf("vector %d: packet hash %#08x want %#08x", i, got, v.withPorts)
		}
	}
}

func TestHashPacketMalformedFallsBack(t *testing.T) {
	h, err := NewHasher(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkt := range [][]byte{nil, {}, make([]byte, 13), make([]byte, 33)} {
		if _, ok := h.HashPacket(pkt); ok {
			t.Errorf("%d-byte frame should not classify", len(pkt))
		}
	}
}

func TestHashStableForOversizedInput(t *testing.T) {
	h, err := NewHasher(nil)
	if err != nil {
		t.Fatal(err)
	}
	long := make([]byte, 4*len(defaultKey))
	for i := range long {
		long[i] = byte(i * 31)
	}
	want := h.sum(long[:len(h.tab)])
	if got := h.sum(long); got != want {
		t.Errorf("oversized input changed the hash: %#08x vs %#08x", got, want)
	}
}

func TestShortKeyRejected(t *testing.T) {
	if _, err := NewHasher(make([]byte, minKeyBytes-1)); err == nil {
		t.Fatal("15-byte key should be rejected")
	}
}

func TestIndirectionSpread(t *testing.T) {
	for _, queues := range []int{1, 2, 4, 8} {
		ind, err := NewIndirection(queues)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, queues)
		for hash := uint32(0); hash < 4*indirectionSize; hash++ {
			q := ind.QueueFor(hash)
			if q < 0 || q >= queues {
				t.Fatalf("queue %d out of range for %d queues", q, queues)
			}
			counts[q]++
		}
		for q, c := range counts {
			if c == 0 {
				t.Errorf("%d queues: queue %d never selected", queues, q)
			}
		}
	}
	if _, err := NewIndirection(0); err == nil {
		t.Fatal("zero queues should be rejected")
	}
}

// TestFlowPinning drives a multi-flow generator through the classifier
// and checks the invariant everything else rests on: one flow, one
// queue, for the whole run.
func TestFlowPinning(t *testing.T) {
	// One batch holds every offer, so nothing needs to drain the sinks.
	d, err := NewDispatcher(DispatcherConfig{Queues: 4, Batch: 2048})
	if err != nil {
		t.Fatal(err)
	}
	gen := pktgen.NewGenerator(pktgen.GeneratorConfig{Flows: 64, PacketLen: 64, Seed: 7})
	seen := map[pktgen.Flow]int{}
	for i := 0; i < 2048; i++ {
		pkt := gen.Next()
		flow, err := pktgen.ParseFlow(pkt)
		if err != nil {
			t.Fatal(err)
		}
		q := d.Offer(pkt)
		if prev, ok := seen[flow]; ok && prev != q {
			t.Fatalf("flow %+v crossed queues: %d then %d", flow, prev, q)
		}
		seen[flow] = q
	}
}
