package rss

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"ehdl/internal/core"
	"ehdl/internal/ebpf"
	"ehdl/internal/maps"
)

// banked is the host view of one replicated map: N per-queue banks plus
// a baseline snapshot taken when the engine seals host setup. Before
// the seal every host write broadcasts to all banks (so each replica
// starts from identical state); after the seal reads serve the merged
// view. The engine wraps every banked map in maps.Synchronized before
// exposing it, so concurrent host-side access is serialised; the data
// plane reaches the banks directly through the per-replica sets and
// never takes that lock.
type banked struct {
	spec    ebpf.MapSpec
	banks   []maps.Map
	sharing core.Sharing

	sealed bool
	// base is the post-setup baseline: key → value copy. Deltas are
	// computed against it during the merge.
	base map[string][]byte

	// conflicts counts keys mutated by more than one bank — zero under
	// correct flow pinning; non-zero values surface steering bugs.
	conflicts uint64

	// mergeMu guards the memoised merge scratch (none today; reserved
	// for the iterate buffer reuse).
	mergeMu sync.Mutex
}

func newBanked(spec ebpf.MapSpec, sharing core.Sharing, queues int) (*banked, error) {
	b := &banked{spec: spec, sharing: sharing, base: map[string][]byte{}}
	for i := 0; i < queues; i++ {
		m, err := maps.New(spec)
		if err != nil {
			return nil, err
		}
		b.banks = append(b.banks, m)
	}
	return b, nil
}

// bank returns the instance replica q executes against.
func (b *banked) bank(q int) maps.Map { return b.banks[q] }

// seal snapshots the broadcast state as the merge baseline. Called once
// by the engine when the run starts.
func (b *banked) seal() {
	b.base = map[string][]byte{}
	b.banks[0].Iterate(func(k, v []byte) bool {
		b.base[string(k)] = append([]byte(nil), v...)
		return true
	})
	b.sealed = true
}

// Spec implements maps.Map.
func (b *banked) Spec() ebpf.MapSpec { return b.spec }

// Update implements maps.Map. Pre-seal it broadcasts; post-seal host
// writes also broadcast — the multi-queue analogue of writing a shared
// config value — and refresh the baseline so the write is not
// double-counted as a data-plane delta.
func (b *banked) Update(key, value []byte, flag maps.UpdateFlag) error {
	for i, m := range b.banks {
		if err := m.Update(key, value, flag); err != nil {
			// Roll nothing back: bank 0 failing first means none were
			// touched for flag errors (exist/no-exist checks are
			// deterministic across identically-seeded banks).
			if i == 0 {
				return err
			}
			return fmt.Errorf("rss: bank %d diverged on update: %w", i, err)
		}
	}
	if b.sealed {
		b.base[string(key)] = append([]byte(nil), value...)
	}
	return nil
}

// Delete implements maps.Map, broadcasting like Update.
func (b *banked) Delete(key []byte) error {
	for i, m := range b.banks {
		if err := m.Delete(key); err != nil {
			if i == 0 {
				return err
			}
			return fmt.Errorf("rss: bank %d diverged on delete: %w", i, err)
		}
	}
	if b.sealed {
		delete(b.base, string(key))
	}
	return nil
}

// Lookup implements maps.Map: pre-seal it reads bank 0 (all banks are
// identical), post-seal it serves the merged value. The returned slice
// is a private copy — the merged view has no stable storage to alias.
func (b *banked) Lookup(key []byte) ([]byte, bool) {
	if !b.sealed {
		v, ok := b.banks[0].Lookup(key)
		if !ok {
			return nil, false
		}
		return append([]byte(nil), v...), true
	}
	return b.mergedLookup(key)
}

func (b *banked) mergedLookup(key []byte) ([]byte, bool) {
	switch b.sharing {
	case core.SharingCounter:
		return b.counterMerge(key)
	default:
		return b.unionMerge(key)
	}
}

// counterMerge computes base + Σ(bankᵢ − base) per 64-bit word: the
// per-CPU counter sum. It is exact for atomic-add mutation whether the
// adds hit one bank (per-flow keys) or all of them (one global
// counter), because per-bank deltas are independent.
func (b *banked) counterMerge(key []byte) ([]byte, bool) {
	base, inBase := b.base[string(key)]
	var present bool
	var out []byte
	if b.spec.ValueSize%8 != 0 {
		// Odd-width values cannot be word-summed; fall back to the
		// union rule.
		return b.unionMerge(key)
	}
	words := b.spec.ValueSize / 8
	acc := make([]uint64, words)
	if inBase {
		present = true
		for w := 0; w < words; w++ {
			acc[w] = binary.LittleEndian.Uint64(base[w*8:])
		}
	}
	for _, m := range b.banks {
		v, ok := m.Lookup(key)
		if !ok {
			continue
		}
		present = true
		for w := 0; w < words; w++ {
			word := binary.LittleEndian.Uint64(v[w*8:])
			if inBase {
				word -= binary.LittleEndian.Uint64(base[w*8:])
			}
			acc[w] += word
		}
	}
	if !present {
		return nil, false
	}
	out = make([]byte, b.spec.ValueSize)
	for w := 0; w < words; w++ {
		binary.LittleEndian.PutUint64(out[w*8:], acc[w])
	}
	return out, true
}

// unionMerge resolves a key by delta-vs-baseline: the value comes from
// the lowest-indexed bank that changed it (created, rewrote or deleted
// it); with no changes the baseline value stands. Multi-bank changes
// increment the conflict counter — they cannot happen while flows stay
// pinned to queues.
func (b *banked) unionMerge(key []byte) ([]byte, bool) {
	base, inBase := b.base[string(key)]
	var (
		chosen  []byte
		present bool
		decided bool
		changes int
	)
	for _, m := range b.banks {
		v, ok := m.Lookup(key)
		changed := false
		switch {
		case ok && !inBase:
			changed = true
		case !ok && inBase:
			changed = true
		case ok && inBase && !bytes.Equal(v, base):
			changed = true
		}
		if !changed {
			continue
		}
		changes++
		if !decided {
			decided = true
			present = ok
			if ok {
				chosen = append([]byte(nil), v...)
			}
		}
	}
	if changes > 1 {
		b.mergeMu.Lock()
		b.conflicts++
		b.mergeMu.Unlock()
	}
	if decided {
		return chosen, present
	}
	if inBase {
		return append([]byte(nil), base...), true
	}
	return nil, false
}

// Iterate implements maps.Map over the merged key universe: baseline
// keys plus any keys created in a bank, each resolved through the merge
// rule. Keys are visited in sorted order so the walk is deterministic
// regardless of replica scheduling.
func (b *banked) Iterate(fn func(key, value []byte) bool) {
	if !b.sealed {
		b.banks[0].Iterate(fn)
		return
	}
	keys := map[string]struct{}{}
	for k := range b.base {
		keys[k] = struct{}{}
	}
	for _, m := range b.banks {
		m.Iterate(func(k, _ []byte) bool {
			keys[string(k)] = struct{}{}
			return true
		})
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		v, ok := b.mergedLookup([]byte(k))
		if !ok {
			continue
		}
		if !fn([]byte(k), v) {
			return
		}
	}
}

// Len implements maps.Map: live keys in the merged view.
func (b *banked) Len() int {
	if !b.sealed {
		return b.banks[0].Len()
	}
	n := 0
	b.Iterate(func(_, _ []byte) bool { n++; return true })
	return n
}

// Conflicts reports keys mutated by more than one bank observed during
// merged reads so far.
func (b *banked) Conflicts() uint64 {
	b.mergeMu.Lock()
	defer b.mergeMu.Unlock()
	return b.conflicts
}
