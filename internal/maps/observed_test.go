package maps

import (
	"testing"

	"ehdl/internal/ebpf"
	"ehdl/internal/obs"
)

func TestObservedCounts(t *testing.T) {
	m, err := New(ebpf.MapSpec{Name: "ctr", Kind: ebpf.MapHash, KeySize: 4, ValueSize: 8, MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	o := observe(m, reg)

	key := []byte{1, 2, 3, 4}
	if _, ok := o.Lookup(key); ok {
		t.Fatal("lookup hit on empty map")
	}
	if err := o.Update(key, make([]byte, 8), UpdateAny); err != nil {
		t.Fatal(err)
	}
	if _, ok := o.Lookup(key); !ok {
		t.Fatal("lookup miss after update")
	}
	if err := o.Delete(key); err != nil {
		t.Fatal(err)
	}

	for name, want := range map[string]uint64{
		"maps.ctr.lookups": 2,
		"maps.ctr.misses":  1,
		"maps.ctr.updates": 1,
		"maps.ctr.deletes": 1,
	} {
		if got, ok := reg.CounterValue(name); !ok || got != want {
			t.Errorf("%s = %d (present %v), want %d", name, got, ok, want)
		}
	}
	if o.Len() != 0 {
		t.Fatalf("len %d after delete", o.Len())
	}
	if u := o.Unwrap(); u != m {
		t.Fatal("Unwrap did not return the inner map")
	}
}

func TestObserveSetSwapsAndIsIdempotent(t *testing.T) {
	prog := &ebpf.Program{Name: "p", Maps: []ebpf.MapSpec{
		{Name: "a", Kind: ebpf.MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 4},
		{Name: "b", Kind: ebpf.MapHash, KeySize: 4, ValueSize: 4, MaxEntries: 4},
	}}
	s, err := NewSet(prog)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	wrapped := ObserveSet(s, reg)
	if len(wrapped) != 2 {
		t.Fatalf("wrapped %d maps", len(wrapped))
	}
	for i, o := range wrapped {
		byID, _ := s.ByID(i)
		if byID != Map(o) {
			t.Fatalf("map %d: set does not resolve to the wrapper", i)
		}
		byName, _ := s.ByName(o.Spec().Name)
		if byName != Map(o) {
			t.Fatalf("map %q: name index does not resolve to the wrapper", o.Spec().Name)
		}
	}
	again := ObserveSet(s, reg)
	for i := range wrapped {
		if again[i] != wrapped[i] {
			t.Fatal("ObserveSet re-wrapped an observed map")
		}
	}
}
