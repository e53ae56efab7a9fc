package maps

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"ehdl/internal/ebpf"
)

// mustNew builds a map from a spec known to be valid; tests may panic
// on impossible construction errors, the library itself may not.
func mustNew(spec ebpf.MapSpec) Map {
	m, err := New(spec)
	if err != nil {
		panic(err)
	}
	return m
}

func u32key(v uint32) []byte {
	k := make([]byte, 4)
	binary.LittleEndian.PutUint32(k, v)
	return k
}

func u64val(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func TestArrayMap(t *testing.T) {
	m := mustNew(ebpf.MapSpec{Name: "a", Kind: ebpf.MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 4})

	v, ok := m.Lookup(u32key(0))
	if !ok || len(v) != 8 {
		t.Fatalf("Lookup(0) = %v, %v", v, ok)
	}
	if err := m.Update(u32key(2), u64val(99), UpdateAny); err != nil {
		t.Fatal(err)
	}
	v, _ = m.Lookup(u32key(2))
	if binary.LittleEndian.Uint64(v) != 99 {
		t.Errorf("value = %d, want 99", binary.LittleEndian.Uint64(v))
	}
	if _, ok := m.Lookup(u32key(4)); ok {
		t.Error("Lookup past MaxEntries succeeded")
	}
	if err := m.Update(u32key(4), u64val(1), UpdateAny); err == nil {
		t.Error("Update past MaxEntries succeeded")
	}
	if err := m.Update(u32key(0), u64val(1), UpdateNoExist); err == nil {
		t.Error("UpdateNoExist on an array map succeeded")
	}
	if err := m.Delete(u32key(0)); err == nil {
		t.Error("Delete on an array map succeeded")
	}
	if m.Len() != 4 {
		t.Errorf("Len = %d, want 4", m.Len())
	}
}

func TestArrayPointerStability(t *testing.T) {
	m := mustNew(ebpf.MapSpec{Name: "a", Kind: ebpf.MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 2})
	v1, _ := m.Lookup(u32key(1))
	// Writing through the reference must be visible to later lookups —
	// this is the bpf_map_lookup_elem pointer semantics programs rely on.
	binary.LittleEndian.PutUint64(v1, 7)
	v2, _ := m.Lookup(u32key(1))
	if binary.LittleEndian.Uint64(v2) != 7 {
		t.Error("write through Lookup reference was lost")
	}
}

func TestHashMap(t *testing.T) {
	m := mustNew(ebpf.MapSpec{Name: "h", Kind: ebpf.MapHash, KeySize: 4, ValueSize: 8, MaxEntries: 2})
	if _, ok := m.Lookup(u32key(1)); ok {
		t.Error("Lookup on empty hash succeeded")
	}
	if err := m.Update(u32key(1), u64val(11), UpdateAny); err != nil {
		t.Fatal(err)
	}
	if err := m.Update(u32key(2), u64val(22), UpdateNoExist); err != nil {
		t.Fatal(err)
	}
	if err := m.Update(u32key(3), u64val(33), UpdateAny); err != errMapFull {
		t.Errorf("Update on full map = %v, want ErrMapFull", err)
	}
	if err := m.Update(u32key(1), u64val(111), UpdateExist); err != nil {
		t.Fatal(err)
	}
	v, _ := m.Lookup(u32key(1))
	if binary.LittleEndian.Uint64(v) != 111 {
		t.Error("UpdateExist did not overwrite")
	}
	if err := m.Update(u32key(1), u64val(5), UpdateNoExist); err != errKeyExist {
		t.Errorf("UpdateNoExist on present key = %v", err)
	}
	if err := m.Update(u32key(9), u64val(5), UpdateExist); err != errKeyNotExist {
		t.Errorf("UpdateExist on absent key = %v", err)
	}
	if err := m.Delete(u32key(1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(u32key(1)); err != errKeyNotExist {
		t.Errorf("double delete = %v", err)
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d, want 1", m.Len())
	}
}

func TestHashPointerStability(t *testing.T) {
	m := mustNew(ebpf.MapSpec{Name: "h", Kind: ebpf.MapHash, KeySize: 4, ValueSize: 8, MaxEntries: 8})
	if err := m.Update(u32key(1), u64val(1), UpdateAny); err != nil {
		t.Fatal(err)
	}
	ref, _ := m.Lookup(u32key(1))
	// An in-place update must not reallocate the buffer.
	if err := m.Update(u32key(1), u64val(42), UpdateAny); err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint64(ref) != 42 {
		t.Error("update reallocated the value buffer")
	}
}

func TestLRUEviction(t *testing.T) {
	m := mustNew(ebpf.MapSpec{Name: "lru", Kind: ebpf.MapLRUHash, KeySize: 4, ValueSize: 8, MaxEntries: 2})
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	check(m.Update(u32key(1), u64val(1), UpdateAny))
	check(m.Update(u32key(2), u64val(2), UpdateAny))
	// Touch key 1 so key 2 becomes the LRU victim.
	m.Lookup(u32key(1))
	check(m.Update(u32key(3), u64val(3), UpdateAny))
	if _, ok := m.Lookup(u32key(2)); ok {
		t.Error("LRU did not evict the least recently used key")
	}
	if _, ok := m.Lookup(u32key(1)); !ok {
		t.Error("LRU evicted a recently used key")
	}
	if m.Len() != 2 {
		t.Errorf("Len = %d, want 2", m.Len())
	}
}

func lpmKey(prefixLen int, addr [4]byte) []byte {
	k := make([]byte, 8)
	binary.LittleEndian.PutUint32(k[:4], uint32(prefixLen))
	copy(k[4:], addr[:])
	return k
}

func TestLPMTrie(t *testing.T) {
	m := mustNew(ebpf.MapSpec{Name: "r", Kind: ebpf.MapLPMTrie, KeySize: 8, ValueSize: 4, MaxEntries: 16})
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// 10.0.0.0/8 -> 1, 10.1.0.0/16 -> 2, default 0.0.0.0/0 -> 3.
	check(m.Update(lpmKey(8, [4]byte{10, 0, 0, 0}), u32key(1), UpdateAny))
	check(m.Update(lpmKey(16, [4]byte{10, 1, 0, 0}), u32key(2), UpdateAny))
	check(m.Update(lpmKey(0, [4]byte{}), u32key(3), UpdateAny))

	cases := []struct {
		addr [4]byte
		want uint32
	}{
		{[4]byte{10, 2, 3, 4}, 1}, // matches /8
		{[4]byte{10, 1, 3, 4}, 2}, // matches the longer /16
		{[4]byte{192, 168, 0, 1}, 3},
	}
	for _, c := range cases {
		v, ok := m.Lookup(lpmKey(32, c.addr))
		if !ok {
			t.Errorf("Lookup(%v) missed", c.addr)
			continue
		}
		if got := binary.LittleEndian.Uint32(v); got != c.want {
			t.Errorf("Lookup(%v) = %d, want %d", c.addr, got, c.want)
		}
	}
	// Delete the /16 and confirm fallback to the /8.
	check(m.Delete(lpmKey(16, [4]byte{10, 1, 0, 0})))
	v, _ := m.Lookup(lpmKey(32, [4]byte{10, 1, 3, 4}))
	if binary.LittleEndian.Uint32(v) != 1 {
		t.Error("delete did not restore the shorter prefix")
	}
	if err := m.Delete(lpmKey(16, [4]byte{10, 1, 0, 0})); err != errKeyNotExist {
		t.Errorf("double delete = %v", err)
	}
	// Excessive prefix length is rejected.
	if err := m.Update(lpmKey(33, [4]byte{1, 2, 3, 4}), u32key(0), UpdateAny); err == nil {
		t.Error("accepted a 33-bit prefix on a 32-bit key")
	}
}

func TestSet(t *testing.T) {
	prog := &ebpf.Program{
		Name: "p",
		Maps: []ebpf.MapSpec{
			{Name: "a", Kind: ebpf.MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 2},
			{Name: "h", Kind: ebpf.MapHash, KeySize: 8, ValueSize: 16, MaxEntries: 64},
		},
		Instructions: []ebpf.Instruction{ebpf.Exit()},
	}
	set, err := NewSet(prog)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 2 {
		t.Fatalf("Len = %d", set.Len())
	}
	a, ok := set.ByName("a")
	if !ok || a.Spec().Name != "a" {
		t.Error("ByName(a) failed")
	}
	h, ok := set.ByID(1)
	if !ok || h.Spec().Name != "h" {
		t.Error("ByID(1) failed")
	}
	if _, ok := set.ByID(2); ok {
		t.Error("ByID(2) succeeded on a 2-map set")
	}
}

func TestSynchronized(t *testing.T) {
	m := Synchronize(mustNew(ebpf.MapSpec{Name: "s", Kind: ebpf.MapHash, KeySize: 4, ValueSize: 8, MaxEntries: 8}))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			_ = m.Update(u32key(uint32(i%8)), u64val(uint64(i)), UpdateAny)
		}
	}()
	for i := 0; i < 1000; i++ {
		m.Lookup(u32key(uint32(i % 8)))
		m.Len()
	}
	<-done
	v, ok := m.Lookup(u32key(0))
	if !ok || len(v) != 8 {
		t.Error("Lookup failed after concurrent updates")
	}
	count := 0
	m.Iterate(func(k, v []byte) bool { count++; return true })
	if count != m.Len() {
		t.Errorf("Iterate visited %d entries, Len = %d", count, m.Len())
	}
}

// TestPropertyLPMAgainstLinearScan compares trie lookups with a
// brute-force longest-prefix scan.
func TestPropertyLPMAgainstLinearScan(t *testing.T) {
	type entry struct {
		plen int
		addr [4]byte
		val  uint32
	}
	match := func(e entry, addr [4]byte) bool {
		for i := 0; i < e.plen; i++ {
			if bitAt(e.addr[:], i) != bitAt(addr[:], i) {
				return false
			}
		}
		return true
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := mustNew(ebpf.MapSpec{Name: "t", Kind: ebpf.MapLPMTrie, KeySize: 8, ValueSize: 4, MaxEntries: 256})
		var entries []entry
		for i := 0; i < 24; i++ {
			e := entry{plen: r.Intn(33), val: uint32(i + 1)}
			r.Read(e.addr[:])
			// Normalise: clear host bits so duplicate prefixes dedupe the
			// same way in both implementations.
			for b := e.plen; b < 32; b++ {
				e.addr[b/8] &^= 1 << (7 - b%8)
			}
			dup := false
			for j, old := range entries {
				if old.plen == e.plen && old.addr == e.addr {
					entries[j].val = e.val
					dup = true
					break
				}
			}
			if !dup {
				entries = append(entries, e)
			}
			if err := m.Update(lpmKey(e.plen, e.addr), u32key(e.val), UpdateAny); err != nil {
				return false
			}
		}
		for i := 0; i < 100; i++ {
			var addr [4]byte
			r.Read(addr[:])
			var best *entry
			for j := range entries {
				e := &entries[j]
				if match(*e, addr) && (best == nil || e.plen > best.plen) {
					best = e
				}
			}
			v, ok := m.Lookup(lpmKey(32, addr))
			if (best != nil) != ok {
				return false
			}
			if ok && binary.LittleEndian.Uint32(v) != best.val {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
