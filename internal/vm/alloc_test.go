//go:build !race

// AllocsPerRun interacts badly with the race detector's instrumented
// allocator, so this file sits outside the -race test gate.

package vm

import (
	"encoding/binary"
	"testing"

	"ehdl/internal/maps"
)

// TestLookupValueAllocatesNothing: neither a key seen before nor one
// looked up for the first time costs an allocation.
func TestLookupValueAllocatesNothing(t *testing.T) {
	c, m := lruSpace(t, 64)
	key := make([]byte, 4)
	for i := uint32(0); i < 64; i++ {
		binary.LittleEndian.PutUint32(key, i)
		if err := m.Update(key, make([]byte, 8), maps.UpdateAny); err != nil {
			t.Fatal(err)
		}
	}
	c.LookupValue(0, key) // the table has grown to the highest slot
	next := uint32(0)
	if n := testing.AllocsPerRun(50, func() { // 51 calls: each key is a first sight
		binary.LittleEndian.PutUint32(key, next)
		next++
		if addr, _ := c.LookupValue(0, key); addr == 0 {
			t.Fatal("miss")
		}
	}); n != 0 {
		t.Errorf("first-seen key: %v allocations per lookup", n)
	}
	if n := testing.AllocsPerRun(100, func() { c.LookupValue(0, key) }); n != 0 {
		t.Errorf("seen key: %v allocations per lookup", n)
	}
	binary.LittleEndian.PutUint32(key, 1<<20)
	if n := testing.AllocsPerRun(100, func() { c.LookupValue(0, key) }); n != 0 {
		t.Errorf("absent key: %v allocations per lookup", n)
	}
}
