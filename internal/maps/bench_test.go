package maps

import (
	"encoding/binary"
	"testing"

	"ehdl/internal/ebpf"
	"ehdl/internal/protect"
)

// BenchmarkProtectedScrubPass measures one full background-scrub pass
// over a completely full hash map (the satellite-6 hot path: the
// scrubber's steady-state cost when the pipeline is otherwise idle).
func BenchmarkProtectedScrubPass(b *testing.B) {
	const entries = 1024
	m, err := New(ebpf.MapSpec{Name: "b", Kind: ebpf.MapHash, KeySize: 4, ValueSize: 16, MaxEntries: entries})
	if err != nil {
		b.Fatal(err)
	}
	p := newProtected(m, protect.SECDED{})
	key := make([]byte, 4)
	val := make([]byte, 16)
	for i := uint32(0); i < entries; i++ {
		binary.LittleEndian.PutUint32(key, i)
		binary.LittleEndian.PutUint64(val, uint64(i)*0x9e3779b97f4a7c15)
		if err := p.Update(key, val, UpdateAny); err != nil {
			b.Fatal(err)
		}
	}
	words := entries * protect.Words(len(val))
	b.SetBytes(int64(entries * len(val)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for w := 0; w < words; w++ {
			if _, wrapped := p.ScrubWord(); wrapped != (w == words-1) {
				b.Fatalf("pass wrapped at word %d of %d", w, words)
			}
		}
	}
}

// BenchmarkProtectedLookupECC is the per-packet read-port cost: one
// protected lookup of a clean 16-byte value.
func BenchmarkProtectedLookupECC(b *testing.B) {
	m, err := New(ebpf.MapSpec{Name: "b", Kind: ebpf.MapHash, KeySize: 4, ValueSize: 16, MaxEntries: 8})
	if err != nil {
		b.Fatal(err)
	}
	p := newProtected(m, protect.SECDED{})
	key := []byte{1, 0, 0, 0}
	if err := p.Update(key, make([]byte, 16), UpdateAny); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := p.Lookup(key); !ok {
			b.Fatal("miss")
		}
	}
}
