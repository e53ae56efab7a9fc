package maps

import (
	"bytes"
	"fmt"
	"sort"

	"ehdl/internal/ebpf"
)

// SetSnapshot is a deep, point-in-time copy of every map in a Set: the
// known-good checkpoint the recovery machinery restores after an
// uncorrectable upset. On the FPGA this is the shadow BRAM copy the
// checkpoint controller maintains; here it is plain byte copies taken
// in each map's deterministic iteration order.
type SetSnapshot struct {
	maps []mapSnapshot
}

type mapSnapshot struct {
	keys   [][]byte
	values [][]byte
}

// Equal reports whether two snapshots hold the same entries, compared
// as per-map key/value sets so a restore's different insertion order
// does not matter.
func (s *SetSnapshot) Equal(o *SetSnapshot) bool {
	if o == nil || len(s.maps) != len(o.maps) {
		return false
	}
	for i := range s.maps {
		a, b := &s.maps[i], &o.maps[i]
		if len(a.keys) != len(b.keys) {
			return false
		}
		want := make(map[string]string, len(a.keys))
		for j := range a.keys {
			want[string(a.keys[j])] = string(a.values[j])
		}
		for j := range b.keys {
			v, ok := want[string(b.keys[j])]
			if !ok || v != string(b.values[j]) {
				return false
			}
		}
	}
	return true
}

// MapEntries is the canonical view of one map's snapshot: parallel
// key/value slices sorted bytewise by key.
type MapEntries struct {
	Keys   [][]byte
	Values [][]byte
}

// Canonical returns every map's entries sorted bytewise by key — a
// byte-stable encoding of the set state. A snapshot's own entry order
// follows each map's iteration order, which is deterministic but
// access-history-dependent (hash maps walk LRU recency); sorting
// removes the history, so two sets holding the same entries always
// canonicalise to the same bytes. This is the form the fleet journal
// digests and durable snapshots are built from.
func (s *SetSnapshot) Canonical() []MapEntries {
	out := make([]MapEntries, len(s.maps))
	for i := range s.maps {
		ms := &s.maps[i]
		idx := make([]int, len(ms.keys))
		for j := range idx {
			idx[j] = j
		}
		sort.Slice(idx, func(a, b int) bool {
			return bytes.Compare(ms.keys[idx[a]], ms.keys[idx[b]]) < 0
		})
		e := &out[i]
		for _, j := range idx {
			e.Keys = append(e.Keys, append([]byte(nil), ms.keys[j]...))
			e.Values = append(e.Values, append([]byte(nil), ms.values[j]...))
		}
	}
	return out
}

// entries returns the total number of entries captured.
func (s *SetSnapshot) entries() int {
	n := 0
	for i := range s.maps {
		n += len(s.maps[i].keys)
	}
	return n
}

// Snapshot deep-copies the current contents of every map in the set.
func (s *Set) Snapshot() *SetSnapshot {
	snap := &SetSnapshot{maps: make([]mapSnapshot, len(s.byID))}
	for i, m := range s.byID {
		ms := &snap.maps[i]
		m.Iterate(func(key, value []byte) bool {
			ms.keys = append(ms.keys, append([]byte(nil), key...))
			ms.values = append(ms.values, append([]byte(nil), value...))
			return true
		})
	}
	return snap
}

// Restore rewrites every map to the snapshotted contents: entries
// created since the snapshot are deleted, surviving and quarantined
// entries are overwritten (which re-encodes protection check bits and
// lifts quarantines on Protected maps). Entry order follows the
// snapshot, so LRU recency is rebuilt deterministically.
func (s *Set) Restore(snap *SetSnapshot) error {
	if len(snap.maps) != len(s.byID) {
		return fmt.Errorf("maps: snapshot of %d maps restored into a set of %d", len(snap.maps), len(s.byID))
	}
	for i, m := range s.byID {
		ms := &snap.maps[i]
		spec := m.Spec()
		if spec.Kind != ebpf.MapArray && spec.Kind != ebpf.MapDevMap {
			// Drop entries that did not exist at checkpoint time. Keys are
			// collected first: deleting while iterating would race the
			// walk's cursor.
			var live [][]byte
			m.Iterate(func(key, _ []byte) bool {
				live = append(live, append([]byte(nil), key...))
				return true
			})
			inSnap := make(map[string]bool, len(ms.keys))
			for _, k := range ms.keys {
				inSnap[string(k)] = true
			}
			for _, k := range live {
				if !inSnap[string(k)] {
					if err := m.Delete(k); err != nil {
						return fmt.Errorf("maps: restore %s: delete: %w", spec.Name, err)
					}
				}
			}
		}
		for j := range ms.keys {
			if err := m.Update(ms.keys[j], ms.values[j], UpdateAny); err != nil {
				return fmt.Errorf("maps: restore %s: %w", spec.Name, err)
			}
		}
	}
	return nil
}
