// Package rss scales the generated pipeline past the single 250 MHz
// 1 pkt/cycle ceiling the way Section 5 of the eHDL paper sizes a
// 100GbE deployment: the design is replicated N times and a
// receive-side-scaling dispatcher spreads flows across the replicas.
//
// The package provides the three hardware pieces as host-side models: a
// Toeplitz flow hasher with an indirection table (the classifier), a
// batching dispatcher (the distributor crossbar) and an Engine that
// runs one independent hwsim pipeline per queue on its own goroutine
// with per-CPU-style banked maps and a deterministic post-run merge.
//
// The correctness contract mirrors real multi-queue NICs: because a
// flow hashes to exactly one queue for the lifetime of a run, per-flow
// behaviour (verdicts, byte mutations, per-flow map entries) is
// bit-identical to the single-queue machine, and global counters merge
// to the same totals the single pipeline would have accumulated.
package rss

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"ehdl/internal/ebpf"
	"ehdl/internal/pktgen"
)

// defaultKey is the 40-byte Toeplitz key Microsoft's RSS specification
// ships and most NIC drivers (ixgbe, mlx5, Corundum's RSS example) use
// verbatim. Verification vectors for this key are published in the RSS
// spec, which the hasher tests check against.
var defaultKey = []byte{
	0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2,
	0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
	0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4,
	0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
	0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
}

// minKeyBytes is the shortest usable key: the hash consumes a 32-bit
// window that slides one bit per input bit, so a key must cover at
// least the 12-byte IPv4 4-tuple plus the 4-byte window.
const minKeyBytes = 16

// Hasher computes the Toeplitz hash of flow tuples.
//
// The hash XORs, for every set bit of the input (MSB first), the 32-bit
// key window starting at that bit position. It is linear over GF(2), so
// the contribution of a whole input byte at a given position depends on
// that byte alone: NewHasher folds the eight windows of every byte
// position into a 256-entry table, and sum is one lookup per input byte
// — the software shape of the XOR tree hardware unrolls the hash into.
type Hasher struct {
	// tab[i][b] is the hash contribution of byte value b at input
	// position i. len(tab) is the longest tuple the key can cover:
	// longer inputs are truncated to it, keeping the hash total and
	// stable for any input size (the fuzzer leans on this).
	tab [][256]uint32
}

// NewHasher builds a hasher from a key. A nil key selects defaultKey.
func NewHasher(key []byte) (*Hasher, error) {
	if key == nil {
		key = defaultKey
	}
	if len(key) < minKeyBytes {
		return nil, fmt.Errorf("rss: key must be at least %d bytes, got %d", minKeyBytes, len(key))
	}
	h := &Hasher{tab: make([][256]uint32, len(key)-4)}
	// window is the 32-bit key view at the current bit offset; it
	// shifts left one bit per input bit, pulling the next key bit in
	// from the right. The input never outruns the key: the last
	// position's last bit consumes the key's last bit.
	window := binary.BigEndian.Uint32(key)
	bitPos := 32
	for i := range h.tab {
		var windows [8]uint32 // indexed by bit value: windows[7] is the MSB's
		for bit := 7; bit >= 0; bit-- {
			windows[bit] = window
			window <<= 1
			if bitPos < 8*len(key) {
				window |= uint32(key[bitPos/8]>>(7-bitPos%8)) & 1
				bitPos++
			}
		}
		// Each entry extends the one with its lowest set bit cleared.
		t := &h.tab[i]
		for b := 1; b < 256; b++ {
			t[b] = t[b&(b-1)] ^ windows[bits.TrailingZeros8(uint8(b))]
		}
	}
	return h, nil
}

// sum computes the Toeplitz hash of input.
func (h *Hasher) sum(input []byte) uint32 {
	if len(input) > len(h.tab) {
		input = input[:len(h.tab)]
	}
	var hash uint32
	for i, b := range input {
		hash ^= h.tab[i][b]
	}
	return hash
}

// tupleBytes serialises a flow 5-tuple the way the RSS spec feeds it to
// the hash: source address, destination address, then source and
// destination port big-endian. Non-TCP/UDP IP traffic hashes addresses
// only, so fragments and odd protocols of one conversation stay
// together.
func tupleBytes(f pktgen.Flow, buf []byte) []byte {
	buf = buf[:0]
	buf = binary.BigEndian.AppendUint32(buf, f.SrcIP)
	buf = binary.BigEndian.AppendUint32(buf, f.DstIP)
	if f.Proto == ebpf.IPProtoTCP || f.Proto == ebpf.IPProtoUDP {
		buf = binary.BigEndian.AppendUint16(buf, f.SrcPort)
		buf = binary.BigEndian.AppendUint16(buf, f.DstPort)
	}
	return buf
}

// HashPacket classifies a raw frame: it parses the flow tuple and
// returns its Toeplitz hash. Malformed, truncated or non-IP frames
// return ok=false — the dispatcher steers those to queue 0, the same
// stable catch-all a hardware RSS block falls back to when header
// parsing fails.
func (h *Hasher) HashPacket(pkt []byte) (hash uint32, ok bool) {
	flow, err := pktgen.ParseFlow(pkt)
	if err != nil {
		return 0, false
	}
	var buf [12]byte
	return h.sum(tupleBytes(flow, buf[:0])), true
}

// indirectionSize is the number of indirection-table buckets, matching
// the 128-entry table of the Microsoft RSS spec and most 10-100G NICs.
const indirectionSize = 128

// Indirection is the hash→queue table. The low 7 bits of the Toeplitz
// hash select a bucket; the bucket holds a queue index.
type Indirection struct {
	table [indirectionSize]int
}

// NewIndirection builds the default equal-spread table: bucket i maps
// to queue i mod queues, the round-robin fill drivers program at reset.
func NewIndirection(queues int) (*Indirection, error) {
	if queues < 1 {
		return nil, fmt.Errorf("rss: need at least one queue, got %d", queues)
	}
	ind := &Indirection{}
	for i := range ind.table {
		ind.table[i] = i % queues
	}
	return ind, nil
}

// QueueFor maps a hash to its queue.
func (ind *Indirection) QueueFor(hash uint32) int {
	return ind.table[hash%indirectionSize]
}
