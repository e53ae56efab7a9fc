package maps

import (
	"encoding/binary"
	"testing"

	"ehdl/internal/ebpf"
	"ehdl/internal/protect"
)

func lpmSpec(name string, max int) ebpf.MapSpec {
	// 4-byte prefix length + 4 address bytes: an IPv4 routing trie.
	return ebpf.MapSpec{Name: name, Kind: ebpf.MapLPMTrie, KeySize: 8, ValueSize: 8, MaxEntries: max}
}

// TestSnapshotRestoreLPM pins the migration substrate for routing
// state: an LPM trie round-trips through Snapshot/Restore with its
// longest-prefix semantics intact, whatever diverged in between.
func TestSnapshotRestoreLPM(t *testing.T) {
	prog := &ebpf.Program{Name: "p", Maps: []ebpf.MapSpec{lpmSpec("routes", 16)}}
	set, err := NewSet(prog)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := set.ByName("routes")
	// Nested prefixes: 10.0.0.0/8 under 10.1.0.0/16 under 10.1.2.0/24.
	mustUpdate(t, m, lpmKey(8, [4]byte{10, 0, 0, 0}), val64(8))
	mustUpdate(t, m, lpmKey(16, [4]byte{10, 1, 0, 0}), val64(16))
	mustUpdate(t, m, lpmKey(24, [4]byte{10, 1, 2, 0}), val64(24))

	snap := set.Snapshot()
	if snap.entries() != 3 {
		t.Fatalf("snapshot captured %d entries, want 3", snap.entries())
	}

	// Diverge in every way a data plane can: a more specific route, a
	// withdrawn route, a changed next hop.
	mustUpdate(t, m, lpmKey(32, [4]byte{10, 1, 2, 3}), val64(32))
	if err := m.Delete(lpmKey(16, [4]byte{10, 1, 0, 0})); err != nil {
		t.Fatal(err)
	}
	mustUpdate(t, m, lpmKey(24, [4]byte{10, 1, 2, 0}), val64(9999))

	if err := set.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 3 {
		t.Fatalf("trie has %d entries after restore, want 3", m.Len())
	}
	// Longest-prefix matching over the restored trie: a /32 query walks
	// down to the most specific surviving covering prefix.
	for _, tc := range []struct {
		addr [4]byte
		want uint64
	}{
		{[4]byte{10, 1, 2, 3}, 24}, // the /24; the post-snapshot /32 is gone
		{[4]byte{10, 1, 9, 0}, 16}, // the restored /16
		{[4]byte{10, 7, 7, 7}, 8},  // the /8
	} {
		v, ok := m.Lookup(lpmKey(32, tc.addr))
		if !ok {
			t.Fatalf("addr %v unroutable after restore", tc.addr)
		}
		if got := binary.LittleEndian.Uint64(v); got != tc.want {
			t.Fatalf("addr %v routed by /%d, want /%d", tc.addr, got, tc.want)
		}
	}
	if !set.Snapshot().Equal(snap) {
		t.Fatal("re-snapshot after restore differs from the checkpoint")
	}
}

// TestSnapshotRestoreProtectedLPM drives the checkpoint path through a
// protected trie: restoring over a quarantined entry must rewrite it
// through the encoding write path, re-arming the check bits and
// lifting the quarantine.
func TestSnapshotRestoreProtectedLPM(t *testing.T) {
	prog := &ebpf.Program{Name: "p", Maps: []ebpf.MapSpec{lpmSpec("routes", 16)}}
	set, err := NewSet(prog)
	if err != nil {
		t.Fatal(err)
	}
	ProtectSet(set, protect.LevelECC)
	m, _ := set.ByName("routes")
	p, ok := asProtected(m)
	if !ok {
		t.Fatal("trie not wrapped")
	}
	mustUpdate(t, m, lpmKey(24, [4]byte{10, 1, 2, 0}), val64(42))
	snap := set.Snapshot()

	// A double flip is uncorrectable under SECDED: the entry quarantines
	// and longest-prefix lookups must refuse to serve it.
	flipStoredBit(t, p, lpmKey(24, [4]byte{10, 1, 2, 0}), 3)
	flipStoredBit(t, p, lpmKey(24, [4]byte{10, 1, 2, 0}), 17)
	if _, ok := m.Lookup(lpmKey(24, [4]byte{10, 1, 2, 0})); ok {
		t.Fatal("poisoned route still served")
	}
	if p.Quarantined() != 1 {
		t.Fatalf("%d entries quarantined, want 1", p.Quarantined())
	}

	if err := set.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if p.Quarantined() != 0 {
		t.Fatal("restore did not lift the quarantine")
	}
	v, ok := m.Lookup(lpmKey(32, [4]byte{10, 1, 2, 3}))
	if !ok {
		t.Fatal("restored route unroutable")
	}
	if got := binary.LittleEndian.Uint64(v); got != 42 {
		t.Fatalf("restored next hop %d, want 42", got)
	}
	if !p.CheckKey(lpmKey(24, [4]byte{10, 1, 2, 0})) {
		t.Fatal("check bits not re-encoded by the restore")
	}
}

// TestSnapshotCapturesQuarantinedRaw pins the semantics of checkpoints
// taken while an entry is quarantined: Snapshot reads raw storage, so
// the poisoned bytes are captured as-is, and restoring re-encodes them
// as the new ground truth — the scrubber's job is to prevent such
// checkpoints, not the snapshotter's to filter them.
func TestSnapshotCapturesQuarantinedRaw(t *testing.T) {
	prog := &ebpf.Program{Name: "p", Maps: []ebpf.MapSpec{hashSpec("h", 8)}}
	set, err := NewSet(prog)
	if err != nil {
		t.Fatal(err)
	}
	ProtectSet(set, protect.LevelECC)
	m, _ := set.ByName("h")
	p, _ := asProtected(m)
	mustUpdate(t, m, key32(1), val64(7))
	flipStoredBit(t, p, key32(1), 3)
	flipStoredBit(t, p, key32(1), 17)
	if _, ok := m.Lookup(key32(1)); ok {
		t.Fatal("entry not quarantined")
	}

	snap := set.Snapshot()
	if snap.entries() != 1 {
		t.Fatalf("snapshot captured %d entries, want the raw quarantined one", snap.entries())
	}
	if err := set.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if p.Quarantined() != 0 {
		t.Fatal("restore left the entry quarantined")
	}
	v, ok := m.Lookup(key32(1))
	if !ok {
		t.Fatal("re-encoded entry still refused")
	}
	if got := binary.LittleEndian.Uint64(v); got == 7 {
		t.Fatal("corrupted checkpoint read back the pre-fault value; the flips were lost")
	} else if got != 7^(1<<3)^(1<<17) {
		t.Fatalf("restored raw value %#x, want the captured double-flip pattern", got)
	}
}

// TestSnapshotCanonical pins the byte-stable encoding the fleet journal
// digests are built from: two sets holding the same entries but with
// different access histories (hash maps iterate in LRU recency order)
// must canonicalise identically, and the canonical order is the
// bytewise key sort.
func TestSnapshotCanonical(t *testing.T) {
	spec := ebpf.MapSpec{Name: "flows", Kind: ebpf.MapHash, KeySize: 4, ValueSize: 8, MaxEntries: 16}
	build := func(touch bool) *SetSnapshot {
		prog := &ebpf.Program{Name: "p", Maps: []ebpf.MapSpec{spec}}
		set, err := NewSet(prog)
		if err != nil {
			t.Fatal(err)
		}
		m, _ := set.ByName("flows")
		for _, k := range []uint32{7, 3, 11, 1} {
			key := make([]byte, 4)
			binary.LittleEndian.PutUint32(key, k)
			mustUpdate(t, m, key, val64(uint64(k)*10))
		}
		if touch {
			// Different access history, same contents: recency order moves.
			for _, k := range []uint32{11, 1} {
				key := make([]byte, 4)
				binary.LittleEndian.PutUint32(key, k)
				if _, ok := m.Lookup(key); !ok {
					t.Fatalf("key %d vanished", k)
				}
			}
		}
		return set.Snapshot()
	}

	a, b := build(false).Canonical(), build(true).Canonical()
	if len(a) != 1 || len(b) != 1 {
		t.Fatalf("canonical forms cover %d/%d maps, want 1", len(a), len(b))
	}
	if len(a[0].Keys) != 4 {
		t.Fatalf("canonical form has %d entries, want 4", len(a[0].Keys))
	}
	for i := range a[0].Keys {
		if string(a[0].Keys[i]) != string(b[0].Keys[i]) || string(a[0].Values[i]) != string(b[0].Values[i]) {
			t.Fatalf("entry %d differs between access histories", i)
		}
		if i > 0 && string(a[0].Keys[i-1]) >= string(a[0].Keys[i]) {
			t.Errorf("canonical keys not strictly sorted at %d", i)
		}
	}

	// The raw snapshots themselves iterate in different orders — the
	// nondeterminism Canonical exists to remove.
	ra, rb := build(false), build(true)
	same := true
	for i := range ra.maps[0].keys {
		if string(ra.maps[0].keys[i]) != string(rb.maps[0].keys[i]) {
			same = false
		}
	}
	if same {
		t.Log("note: recency order happened to match; canonical form still required by contract")
	}
	if !ra.Equal(rb) {
		t.Error("same-content snapshots must compare Equal regardless of order")
	}
}
