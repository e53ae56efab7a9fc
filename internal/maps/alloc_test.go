//go:build !race

// AllocsPerRun interacts badly with the race detector's instrumented
// allocator, so this file sits outside the -race test gate.

package maps

import (
	"encoding/binary"
	"testing"

	"ehdl/internal/ebpf"
)

// TestHashAllocations is the store's allocation contract on the
// per-packet path: a lookup — hit or miss — and an update of a present
// key allocate nothing; an insert costs its share of a value slab, one
// allocation per slabValues inserts, however the slots churn; a walk
// allocates nothing per entry.
func TestHashAllocations(t *testing.T) {
	for _, kind := range []ebpf.MapKind{ebpf.MapHash, ebpf.MapLRUHash} {
		m := mustNew(ebpf.MapSpec{Name: "h", Kind: kind, KeySize: 12, ValueSize: 16, MaxEntries: 64})
		key, val := make([]byte, 12), make([]byte, 16)
		for i := uint32(0); i < 64; i++ {
			binary.LittleEndian.PutUint32(key, i)
			if err := m.Update(key, val, UpdateAny); err != nil {
				t.Fatal(err)
			}
		}
		gate := func(what string, limit float64, fn func()) {
			t.Helper()
			if n := testing.AllocsPerRun(1024, fn); n > limit {
				t.Errorf("%v %s: %v allocations per call, limit %v", kind, what, n, limit)
			}
		}
		next := uint32(0)
		gate("lookup hit", 0, func() {
			binary.LittleEndian.PutUint32(key, next%64)
			next++
			if _, ok := m.Lookup(key); !ok {
				t.Fatal("miss")
			}
		})
		gate("lookup miss", 0, func() {
			binary.LittleEndian.PutUint32(key, 1000+next)
			next++
			m.Lookup(key)
		})
		gate("update of a present key", 0, func() {
			binary.LittleEndian.PutUint32(key, next%64)
			next++
			if err := m.Update(key, val, UpdateExist); err != nil {
				t.Fatal(err)
			}
		})
		// The map is full: an LRU insert evicts, a plain one follows a
		// delete, and both land in a recycled slot with fresh value bytes.
		fresh := uint32(64)
		gate("insert", 1.0/64, func() {
			if kind == ebpf.MapHash {
				binary.LittleEndian.PutUint32(key, fresh-64)
				if err := m.Delete(key); err != nil {
					t.Fatal(err)
				}
			}
			binary.LittleEndian.PutUint32(key, fresh)
			fresh++
			if err := m.Update(key, val, UpdateNoExist); err != nil {
				t.Fatal(err)
			}
		})
		gate("iterate", 0, func() {
			m.Iterate(func(k, v []byte) bool { return len(k) == 12 && len(v) == 16 })
		})
	}
}
