package maps

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"ehdl/internal/ebpf"
	"ehdl/internal/protect"
)

func hashSpec(name string, max int) ebpf.MapSpec {
	return ebpf.MapSpec{Name: name, Kind: ebpf.MapHash, KeySize: 4, ValueSize: 8, MaxEntries: max}
}

func key32(v uint32) []byte {
	k := make([]byte, 4)
	binary.LittleEndian.PutUint32(k, v)
	return k
}

func val64(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func newProtectedHash(t *testing.T, level protect.Level) *Protected {
	t.Helper()
	m, err := New(hashSpec("t", 64))
	if err != nil {
		t.Fatal(err)
	}
	return newProtected(m, protect.ForLevel(level))
}

// flipStoredBit damages the raw backing store of one entry, as the SEU
// injector does, bypassing the protected write path.
func flipStoredBit(t *testing.T, p *Protected, key []byte, bit int) {
	t.Helper()
	found := false
	p.Iterate(func(k, v []byte) bool {
		if bytes.Equal(k, key) {
			v[bit/8] ^= 1 << (bit % 8)
			found = true
			return false
		}
		return true
	})
	if !found {
		t.Fatalf("entry %x not found for fault injection", key)
	}
}

func TestProtectedECCCorrectsOnLookup(t *testing.T) {
	p := newProtectedHash(t, protect.LevelECC)
	if err := p.Update(key32(1), val64(0xdeadbeef), UpdateAny); err != nil {
		t.Fatal(err)
	}
	flipStoredBit(t, p, key32(1), 13)
	v, ok := p.Lookup(key32(1))
	if !ok {
		t.Fatal("lookup missed after a single-bit upset")
	}
	if got := binary.LittleEndian.Uint64(v); got != 0xdeadbeef {
		t.Fatalf("value %x after correction, want deadbeef", got)
	}
	ctr := p.Counters()
	if ctr.Corrected != 1 || ctr.Uncorrectable != 0 {
		t.Fatalf("counters %+v", ctr)
	}
}

func TestProtectedECCQuarantinesDoubleFlip(t *testing.T) {
	p := newProtectedHash(t, protect.LevelECC)
	if err := p.Update(key32(1), val64(7), UpdateAny); err != nil {
		t.Fatal(err)
	}
	flipStoredBit(t, p, key32(1), 3)
	flipStoredBit(t, p, key32(1), 44)
	if _, ok := p.Lookup(key32(1)); ok {
		t.Fatal("lookup served a double-bit-corrupted value")
	}
	if p.Counters().Uncorrectable == 0 || p.Quarantined() != 1 {
		t.Fatalf("counters %+v quarantined %d", p.Counters(), p.Quarantined())
	}
	// Still missing until rewritten; then healthy again.
	if _, ok := p.Lookup(key32(1)); ok {
		t.Fatal("quarantined entry resurfaced")
	}
	if err := p.Update(key32(1), val64(9), UpdateAny); err != nil {
		t.Fatal(err)
	}
	v, ok := p.Lookup(key32(1))
	if !ok || binary.LittleEndian.Uint64(v) != 9 {
		t.Fatalf("rewrite did not lift quarantine: %v %v", v, ok)
	}
	if p.Quarantined() != 0 {
		t.Fatal("quarantine count did not drop after rewrite")
	}
}

func TestProtectedParityDetectsOnly(t *testing.T) {
	p := newProtectedHash(t, protect.LevelParity)
	if err := p.Update(key32(2), val64(1), UpdateAny); err != nil {
		t.Fatal(err)
	}
	flipStoredBit(t, p, key32(2), 0)
	if _, ok := p.Lookup(key32(2)); ok {
		t.Fatal("parity level served a corrupted value")
	}
	ctr := p.Counters()
	if ctr.Corrected != 0 || ctr.Uncorrectable == 0 {
		t.Fatalf("parity counters %+v", ctr)
	}
}

func TestProtectedArrayCoveredFromCreation(t *testing.T) {
	// Array entries exist (zero-filled) from creation and are rarely
	// Updated; Protect must encode the whole backing store immediately.
	m, err := New(ebpf.MapSpec{Name: "a", Kind: ebpf.MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	p := newProtected(m, protect.SECDED{})
	flipStoredBit(t, p, key32(3), 17)
	v, ok := p.Lookup(key32(3))
	if !ok || binary.LittleEndian.Uint64(v) != 0 {
		t.Fatalf("zero-init array entry not corrected: %v %v", v, ok)
	}
	if p.Counters().Corrected != 1 {
		t.Fatalf("counters %+v", p.Counters())
	}
}

func TestProtectedReencodeAfterPointerWrite(t *testing.T) {
	p := newProtectedHash(t, protect.LevelECC)
	if err := p.Update(key32(1), val64(5), UpdateAny); err != nil {
		t.Fatal(err)
	}
	// The data plane writes through the lookup pointer: mutate raw
	// storage, then re-encode like the hardware write port.
	v, _ := p.Lookup(key32(1))
	binary.LittleEndian.PutUint64(v, 1234)
	p.Reencode(key32(1))
	got, ok := p.Lookup(key32(1))
	if !ok || binary.LittleEndian.Uint64(got) != 1234 {
		t.Fatalf("re-encoded value lost: %v %v", got, ok)
	}
	if c := p.Counters(); c.Corrected != 0 && c.Uncorrectable != 0 {
		t.Fatalf("pointer write misread as an upset: %+v", c)
	}
}

func TestProtectedScrubWordHealsIdleEntries(t *testing.T) {
	p := newProtectedHash(t, protect.LevelECC)
	for i := uint32(0); i < 8; i++ {
		if err := p.Update(key32(i), val64(uint64(i)*3), UpdateAny); err != nil {
			t.Fatal(err)
		}
	}
	flipStoredBit(t, p, key32(5), 22)
	// One full pass: 8 entries x 1 word.
	for i := 0; i < 8; i++ {
		_, wrapped := p.ScrubWord()
		if wrapped != (i == 7) {
			t.Fatalf("word %d wrapped=%v", i, wrapped)
		}
	}
	if c := p.Counters(); c.Corrected != 1 || c.Uncorrectable != 0 {
		t.Fatalf("scrub counters %+v", c)
	}
	// The entry is healed without ever being looked up.
	v, ok := p.Lookup(key32(5))
	if !ok || binary.LittleEndian.Uint64(v) != 15 {
		t.Fatalf("scrub did not heal the entry: %v %v", v, ok)
	}
}

func TestProtectedScrubSkipsEntriesDeletedMidPass(t *testing.T) {
	p := newProtectedHash(t, protect.LevelECC)
	for i := uint32(0); i < 4; i++ {
		if err := p.Update(key32(i), val64(1), UpdateAny); err != nil {
			t.Fatal(err)
		}
	}
	if _, wrapped := p.ScrubWord(); wrapped {
		t.Fatal("pass wrapped after one of four words")
	}
	// Delete the rest mid-pass; the cursor must skip them and wrap.
	for i := uint32(1); i < 4; i++ {
		if err := p.Delete(key32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, wrapped := p.ScrubWord(); !wrapped {
		t.Fatal("pass did not wrap over deleted entries")
	}
}

func TestProtectSetWrapsEveryMap(t *testing.T) {
	prog := &ebpf.Program{Name: "p", Maps: []ebpf.MapSpec{
		hashSpec("h", 8),
		{Name: "a", Kind: ebpf.MapArray, KeySize: 4, ValueSize: 4, MaxEntries: 2},
	}}
	set, err := NewSet(prog)
	if err != nil {
		t.Fatal(err)
	}
	ps := ProtectSet(set, protect.LevelECC)
	if len(ps) != 2 {
		t.Fatalf("wrapped %d maps, want 2", len(ps))
	}
	for id := 0; id < set.Len(); id++ {
		m, _ := set.ByID(id)
		if _, ok := asProtected(m); !ok {
			t.Fatalf("map %d not wrapped in the set", id)
		}
	}
	if byName, _ := set.ByName("h"); byName != Map(ps[0]) {
		t.Fatal("ByName does not resolve to the wrapper")
	}
	// Idempotent: wrapping again returns the same wrappers.
	again := ProtectSet(set, protect.LevelECC)
	if again[0] != ps[0] || again[1] != ps[1] {
		t.Fatal("re-protecting rewrapped the maps")
	}
	if ProtectSet(set, protect.LevelNone) != nil {
		t.Fatal("LevelNone must be a no-op")
	}
}

func TestSnapshotRestore(t *testing.T) {
	prog := &ebpf.Program{Name: "p", Maps: []ebpf.MapSpec{
		hashSpec("h", 8),
		{Name: "a", Kind: ebpf.MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 3},
		{Name: "lru", Kind: ebpf.MapLRUHash, KeySize: 4, ValueSize: 8, MaxEntries: 4},
	}}
	set, err := NewSet(prog)
	if err != nil {
		t.Fatal(err)
	}
	ProtectSet(set, protect.LevelECC)
	h, _ := set.ByName("h")
	a, _ := set.ByName("a")
	lru, _ := set.ByName("lru")
	for i := uint32(0); i < 3; i++ {
		mustUpdate(t, h, key32(i), val64(uint64(i)))
		mustUpdate(t, a, key32(i), val64(uint64(i)+10))
		mustUpdate(t, lru, key32(i), val64(uint64(i)+20))
	}

	snap := set.Snapshot()
	if snap.entries() != 3+3+3 {
		t.Fatalf("snapshot captured %d entries", snap.entries())
	}

	// Diverge: mutate, create, delete, and corrupt.
	mustUpdate(t, h, key32(0), val64(99))
	mustUpdate(t, h, key32(7), val64(77))
	if err := h.Delete(key32(2)); err != nil {
		t.Fatal(err)
	}
	mustUpdate(t, a, key32(1), val64(1000))
	p, _ := asProtected(h)
	mustUpdate(t, h, key32(1), val64(1))
	flipStoredBit(t, p, key32(1), 2)
	flipStoredBit(t, p, key32(1), 9)
	if _, ok := h.Lookup(key32(1)); ok {
		t.Fatal("corrupted entry not quarantined")
	}

	if err := set.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 3; i++ {
		checkVal(t, h, key32(i), uint64(i))
		checkVal(t, a, key32(i), uint64(i)+10)
		checkVal(t, lru, key32(i), uint64(i)+20)
	}
	if _, ok := h.Lookup(key32(7)); ok {
		t.Fatal("entry created after the snapshot survived the restore")
	}
	if h.Len() != 3 {
		t.Fatalf("hash has %d entries after restore, want 3", h.Len())
	}
	if p.Quarantined() != 0 {
		t.Fatal("restore did not lift the quarantine")
	}
}

func mustUpdate(t *testing.T, m Map, key, val []byte) {
	t.Helper()
	if err := m.Update(key, val, UpdateAny); err != nil {
		t.Fatal(err)
	}
}

func checkVal(t *testing.T, m Map, key []byte, want uint64) {
	t.Helper()
	v, ok := m.Lookup(key)
	if !ok {
		t.Fatalf("key %x missing after restore", key)
	}
	if got := binary.LittleEndian.Uint64(v); got != want {
		t.Fatalf("key %x = %d after restore, want %d", key, got, want)
	}
}

// TestSynchronizedIterateIsReentrant is the regression test for the
// lock-across-callback hazard: Iterate used to hold the mutex while
// invoking fn, so any map operation from inside the callback
// self-deadlocked. The walk now snapshots first; every re-entrant call
// must return.
func TestSynchronizedIterateIsReentrant(t *testing.T) {
	m, err := New(hashSpec("s", 16))
	if err != nil {
		t.Fatal(err)
	}
	s := Synchronize(m)
	for i := uint32(0); i < 4; i++ {
		mustUpdate(t, s, key32(i), val64(uint64(i)))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		visited := 0
		s.Iterate(func(k, v []byte) bool {
			visited++
			// Every operation class re-enters the same Synchronized map.
			if _, ok := s.Lookup(k); !ok {
				t.Errorf("re-entrant Lookup missed %x", k)
			}
			if err := s.Update(key32(100), val64(1), UpdateAny); err != nil {
				t.Errorf("re-entrant Update: %v", err)
			}
			s.Iterate(func([]byte, []byte) bool { return false })
			_ = s.Len()
			return true
		})
		if visited != 4 {
			t.Errorf("visited %d entries, want the 4 snapshotted ones", visited)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Synchronized.Iterate deadlocked on re-entrant map access")
	}
	if err := s.Delete(key32(100)); err != nil {
		t.Fatalf("entry added during iteration is missing: %v", err)
	}
}

func TestSynchronizedIterateSnapshotIsPrivate(t *testing.T) {
	m, err := New(hashSpec("s", 4))
	if err != nil {
		t.Fatal(err)
	}
	s := Synchronize(m)
	mustUpdate(t, s, key32(1), val64(42))
	s.Iterate(func(k, v []byte) bool {
		v[0] = 0xff // scribbling on the snapshot must not reach the map
		return true
	})
	v, ok := s.Lookup(key32(1))
	if !ok || binary.LittleEndian.Uint64(v) != 42 {
		t.Fatal("Iterate snapshot aliases map storage")
	}
}

func ExampleProtected() {
	m, _ := New(ebpf.MapSpec{Name: "ctrs", Kind: ebpf.MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 1})
	p := newProtected(m, protect.SECDED{})
	_ = p.Update(key32(0), val64(41), UpdateAny)
	// An SEU flips a stored bit...
	p.Iterate(func(_, v []byte) bool { v[0] ^= 0x04; return false })
	// ...and the read port corrects it transparently.
	v, _ := p.Lookup(key32(0))
	fmt.Println(binary.LittleEndian.Uint64(v), p.Counters().Corrected)
	// Output: 41 1
}
