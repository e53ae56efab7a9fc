package maps

import (
	"ehdl/internal/ebpf"
	"ehdl/internal/protect"
)

// Protected wraps a map with a per-word protection codec, modelling the
// ECC/parity bits an FPGA map block stores alongside every BRAM word
// (Xilinx parts carry 8 spare bits per 64 data bits for exactly this).
//
//   - Update (and host-side restores) encode check bits for the stored
//     value — the write-port encoder.
//   - Lookup checks every word of the value against its code before
//     handing out the reference — the read-port syndrome decoder.
//     Single-bit upsets are corrected in place under LevelECC; any
//     detected-but-uncorrectable word quarantines the entry, and the
//     lookup reports a miss rather than serving poisoned data.
//   - ScrubWord implements protect.Scrubbable: the background scrubber
//     sweeps one word per call under a deterministic cursor.
//   - Writes that bypass Update (the data plane storing through a
//     lookup pointer) must be followed by Reencode, exactly as the
//     hardware write port re-encodes on every store.
//
// Iterate deliberately passes the raw storage through unchecked: it is
// the debug/host port the fault injector and the scrubber's own
// bookkeeping use, and checking there would hide the very upsets the
// protection path is supposed to be measured against.
type Protected struct {
	m     Slotted
	codec protect.Codec
	check map[string][]byte
	quar  map[string]bool
	ctr   protect.Counters

	// Scrub cursor: the key list snapshotted at pass start and the
	// entry/word position within it. A nil passKeys means no pass is in
	// flight.
	passKeys  []string
	passEntry int
	passWord  int
	inPass    bool
}

// newProtected wraps m, encoding check bits for every entry it already
// holds (array maps exist in full from creation, so their whole
// backing store is covered immediately).
func newProtected(m Slotted, codec protect.Codec) *Protected {
	p := &Protected{
		m:     m,
		codec: codec,
		check: make(map[string][]byte),
		quar:  make(map[string]bool),
	}
	m.Iterate(func(key, value []byte) bool {
		p.encode(string(key), value)
		return true
	})
	return p
}

// asProtected reports whether a map is protection-wrapped.
func asProtected(m Map) (*Protected, bool) {
	p, ok := m.(*Protected)
	return p, ok
}

// Counters returns a snapshot of the check outcomes so far.
func (p *Protected) Counters() protect.Counters { return p.ctr }

// Quarantined returns the number of entries currently quarantined.
func (p *Protected) Quarantined() int { return len(p.quar) }

// Spec implements Map.
func (p *Protected) Spec() ebpf.MapSpec { return p.m.Spec() }

// encode (re)computes the check bits for a stored value.
func (p *Protected) encode(key string, value []byte) {
	n := protect.Words(len(value)) * p.codec.CheckBytesPerWord()
	chk := p.check[key]
	if len(chk) != n {
		chk = make([]byte, n)
		p.check[key] = chk
	}
	p.codec.Encode(value, chk)
	delete(p.quar, key)
}

// checkEntry verifies every word of a stored value, correcting what the
// codec can and quarantining the entry on an uncorrectable word. It
// returns false when the entry is (now) quarantined.
func (p *Protected) checkEntry(key string, value []byte) bool {
	chk, ok := p.check[key]
	if !ok {
		// No code stored (an entry that predates protection, or an LRU
		// slot recycled outside Update): encode now so the next upset is
		// caught.
		p.encode(key, value)
		return true
	}
	poisoned := false
	for w := 0; w < protect.Words(len(value)); w++ {
		st := p.codec.CheckWord(value, chk, w)
		p.ctr.Note(st)
		if st == protect.WordUncorrectable {
			poisoned = true
		}
	}
	if poisoned {
		p.quar[key] = true
		return false
	}
	return true
}

// Lookup implements Map: the value is checked (and corrected in place
// when the codec allows) before the reference escapes. A quarantined
// entry reports a miss until it is rewritten.
func (p *Protected) Lookup(key []byte) ([]byte, bool) {
	v, _, ok := p.LookupSlot(key)
	return v, ok
}

// LookupSlot implements Slotted with Lookup's checks; the slot is the
// wrapped map's.
func (p *Protected) LookupSlot(key []byte) ([]byte, int, bool) {
	k := string(key)
	if p.quar[k] {
		return nil, 0, false
	}
	v, slot, ok := p.m.LookupSlot(key)
	if !ok {
		// Lazy cleanup of codes orphaned by LRU eviction.
		delete(p.check, k)
		return nil, 0, false
	}
	if !p.checkEntry(k, v) {
		return nil, 0, false
	}
	return v, slot, true
}

// Update implements Map, re-encoding the stored value (the write-port
// encoder) and lifting any quarantine on the key.
func (p *Protected) Update(key, value []byte, flag UpdateFlag) error {
	k := string(key)
	if p.quar[k] && flag == UpdateNoExist {
		// The poisoned entry still occupies the slot; creating over it
		// is an overwrite in disguise. Allow it: recovery rewrites
		// quarantined entries this way.
		flag = UpdateAny
	}
	if err := p.m.Update(key, value, flag); err != nil {
		return err
	}
	if v, ok := p.m.Lookup(key); ok {
		p.encode(k, v)
	}
	return nil
}

// Delete implements Map.
func (p *Protected) Delete(key []byte) error {
	k := string(key)
	if err := p.m.Delete(key); err != nil {
		return err
	}
	delete(p.check, k)
	delete(p.quar, k)
	return nil
}

// Iterate implements Map, exposing raw unchecked storage (see the type
// comment).
func (p *Protected) Iterate(fn func(key, value []byte) bool) { p.m.Iterate(fn) }

// Len implements Map.
func (p *Protected) Len() int { return p.m.Len() }

// Reencode recomputes the check bits of one entry after a write that
// bypassed Update — the data plane storing through a lookup pointer.
func (p *Protected) Reencode(key []byte) {
	if v, ok := p.m.Lookup(key); ok {
		p.encode(string(key), v)
	}
}

// CheckKey verifies (and corrects) one entry on demand without handing
// out the value — the read-port decode the simulator runs before a
// pointer-relative load. It reports false when the entry is
// quarantined.
func (p *Protected) CheckKey(key []byte) bool {
	k := string(key)
	if p.quar[k] {
		return false
	}
	v, ok := p.m.Lookup(key)
	if !ok {
		return true
	}
	return p.checkEntry(k, v)
}

// ScrubWord implements protect.Scrubbable: check one word under the
// pass cursor. The pass key list is snapshotted when a pass begins, in
// the map's deterministic iteration order; entries deleted mid-pass are
// skipped.
func (p *Protected) ScrubWord() (protect.WordStatus, bool) {
	if !p.inPass {
		p.passKeys = p.passKeys[:0]
		p.m.Iterate(func(key, _ []byte) bool {
			p.passKeys = append(p.passKeys, string(key))
			return true
		})
		p.passEntry, p.passWord = 0, 0
		if len(p.passKeys) == 0 {
			return protect.WordOK, true
		}
		p.inPass = true
	}
	for p.passEntry < len(p.passKeys) {
		key := p.passKeys[p.passEntry]
		if p.quar[key] {
			p.passEntry, p.passWord = p.passEntry+1, 0
			continue
		}
		v, ok := p.m.Lookup([]byte(key))
		if !ok {
			p.passEntry, p.passWord = p.passEntry+1, 0
			continue
		}
		chk, ok := p.check[key]
		if !ok {
			p.encode(key, v)
			chk = p.check[key]
		}
		st := p.codec.CheckWord(v, chk, p.passWord)
		p.ctr.Note(st)
		if st == protect.WordUncorrectable {
			p.quar[key] = true
			p.passEntry, p.passWord = p.passEntry+1, 0
		} else {
			p.passWord++
			if p.passWord >= protect.Words(len(v)) {
				p.passEntry, p.passWord = p.passEntry+1, 0
			}
		}
		if p.passEntry >= len(p.passKeys) {
			p.inPass = false
			return st, true
		}
		return st, false
	}
	p.inPass = false
	return protect.WordOK, true
}

// ProtectSet wraps every map of a set at the given level and returns
// the wrappers (nil for LevelNone). Maps already wrapped are returned
// as-is. The set is one a program runs against — every map Slotted: a
// host view has no words of its own to protect.
func ProtectSet(s *Set, level protect.Level) []*Protected {
	codec := protect.ForLevel(level)
	if codec == nil {
		return nil
	}
	out := make([]*Protected, 0, len(s.byID))
	for i, m := range s.byID {
		p, ok := asProtected(m)
		if !ok {
			p = newProtected(m.(Slotted), codec)
			s.byID[i] = p
			s.byName[p.Spec().Name] = p
		}
		out = append(out, p)
	}
	return out
}
