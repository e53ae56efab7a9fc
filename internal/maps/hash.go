package maps

import (
	"hash/maphash"

	"ehdl/internal/ebpf"
)

// hashMap is BPF_MAP_TYPE_HASH and, with evict set,
// BPF_MAP_TYPE_LRU_HASH. The LRU variant evicts the least recently used
// entry instead of failing when full, matching the kernel's behaviour
// closely enough for the evaluation workloads (connection tables that
// must not reject new flows).
//
// The store is flat, the way an eHDLmap block is a fixed-geometry table:
// an entry lives in a slot, a small integer below MaxEntries, and the
// slot names everything about it — its key (inline in keys), its place
// in the recency list (prev/next) and its value. An open-addressed index
// takes a key's hash to its slot in one probe sequence, with no pointer
// to chase and nothing allocated. Slots recycle freely through a free
// list because nothing outside the map keeps one across a delete; value
// buffers never do. A program writes through the pointer a lookup
// returned, and a pipelined packet may still hold that pointer when a
// younger packet's delete or eviction commits, so every incarnation of
// an entry gets fresh bytes bump-allocated from a slab: the late write
// lands in memory no other key will ever own, and the garbage collector
// frees a slab once its last entry and last outstanding reference are
// gone. Index, keys and links grow on demand and may move; slabs do not.
//
// Nothing observable depends on the hash: iteration follows the recency
// list (front = most recent insert; on an LRU map a lookup or update
// moves the entry to the front), which is what snapshots, journal
// digests and merges read.
type hashMap struct {
	spec  ebpf.MapSpec
	evict bool
	seed  maphash.Seed

	index []indexEntry // power-of-two sized, linear probing, at most half full
	keys  []byte       // slot s holds keys[s*KeySize : (s+1)*KeySize]
	slots []hashSlot
	head  int32 // most recent entry, -1 when empty
	tail  int32 // least recent entry, -1 when empty
	free  int32 // freed slots chained through next, -1 when none
	n     int
	slab  []byte // what is left of the newest value slab
}

// indexEntry is one bucket of the open-addressed index. The home bucket
// of a key is tag&mask; the tag also screens out most foreign keys
// before their bytes are compared.
type indexEntry struct {
	tag  uint32
	slot int32 // slot+1, so the zero entry is an empty bucket
}

type hashSlot struct {
	value      []byte
	prev, next int32
}

// slabValues is how many value buffers one slab holds: one allocation
// per slabValues inserts.
const slabValues = 256

func newHash(spec ebpf.MapSpec, evict bool) *hashMap {
	return &hashMap{spec: spec, evict: evict, seed: maphash.MakeSeed(), head: -1, tail: -1, free: -1}
}

func (h *hashMap) Spec() ebpf.MapSpec { return h.spec }

func (h *hashMap) tag(key []byte) uint32 { return uint32(maphash.Bytes(h.seed, key) >> 32) }

func (h *hashMap) key(s int32) []byte {
	ks := h.spec.KeySize
	return h.keys[int(s)*ks : (int(s)+1)*ks : (int(s)+1)*ks]
}

// find returns the slot holding key, or -1.
func (h *hashMap) find(key []byte, tag uint32) int32 {
	if len(h.index) == 0 {
		return -1
	}
	mask := uint32(len(h.index) - 1)
	for i := tag & mask; ; i = (i + 1) & mask {
		e := h.index[i]
		if e.slot == 0 {
			return -1
		}
		if e.tag == tag && string(h.key(e.slot-1)) == string(key) {
			return e.slot - 1
		}
	}
}

// place files slot under tag; the caller keeps the index at most half
// full, so an empty bucket exists.
func (h *hashMap) place(tag uint32, slot int32) {
	mask := uint32(len(h.index) - 1)
	i := tag & mask
	for h.index[i].slot != 0 {
		i = (i + 1) & mask
	}
	h.index[i] = indexEntry{tag: tag, slot: slot + 1}
}

// unplace removes slot's bucket and closes the gap by shifting back the
// entries that probed past it, so the index never holds a tombstone.
func (h *hashMap) unplace(tag uint32, slot int32) {
	mask := uint32(len(h.index) - 1)
	i := tag & mask
	for h.index[i].slot != slot+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; h.index[j].slot != 0; j = (j + 1) & mask {
		// The entry at j may fill the gap at i unless its home bucket
		// lies in (i, j], where the gap is not on its probe path.
		if (j-h.index[j].tag)&mask >= (j-i)&mask {
			h.index[i], i = h.index[j], j
		}
	}
	h.index[i] = indexEntry{}
}

// grow doubles the index and files every live entry again.
func (h *hashMap) grow() {
	old := h.index
	h.index = make([]indexEntry, max(8, 2*len(old)))
	for _, e := range old {
		if e.slot != 0 {
			h.place(e.tag, e.slot-1)
		}
	}
}

func (h *hashMap) unlink(s int32) {
	e := &h.slots[s]
	if e.prev >= 0 {
		h.slots[e.prev].next = e.next
	} else {
		h.head = e.next
	}
	if e.next >= 0 {
		h.slots[e.next].prev = e.prev
	} else {
		h.tail = e.prev
	}
}

func (h *hashMap) pushFront(s int32) {
	e := &h.slots[s]
	e.prev, e.next = -1, h.head
	if h.head >= 0 {
		h.slots[h.head].prev = s
	} else {
		h.tail = s
	}
	h.head = s
}

func (h *hashMap) touch(s int32) {
	if h.evict && h.head != s {
		h.unlink(s)
		h.pushFront(s)
	}
}

// newValue hands out the next ValueSize bytes of the slab (see the type
// comment for why a freed slot's old bytes are not reused instead).
func (h *hashMap) newValue(value []byte) []byte {
	vs := h.spec.ValueSize
	if len(h.slab) < vs {
		h.slab = make([]byte, slabValues*vs)
	}
	v := h.slab[:vs:vs]
	h.slab = h.slab[vs:]
	copy(v, value)
	return v
}

func (h *hashMap) Lookup(key []byte) ([]byte, bool) {
	v, _, ok := h.LookupSlot(key)
	return v, ok
}

// LookupSlot implements Slotted. On a plain hash map it writes nothing,
// so replicas may share one across goroutines.
func (h *hashMap) LookupSlot(key []byte) ([]byte, int, bool) {
	if len(key) != h.spec.KeySize {
		return nil, 0, false
	}
	s := h.find(key, h.tag(key))
	if s < 0 {
		return nil, 0, false
	}
	h.touch(s)
	return h.slots[s].value, int(s), true
}

func (h *hashMap) Update(key, value []byte, flag UpdateFlag) error {
	if err := checkKey(h.spec, key); err != nil {
		return err
	}
	if err := checkValue(h.spec, value); err != nil {
		return err
	}
	tag := h.tag(key)
	if s := h.find(key, tag); s >= 0 {
		if flag == UpdateNoExist {
			return errKeyExist
		}
		copy(h.slots[s].value, value)
		h.touch(s)
		return nil
	}
	if flag == UpdateExist {
		return errKeyNotExist
	}
	var s int32
	switch {
	case h.n >= h.spec.MaxEntries:
		if !h.evict {
			return errMapFull
		}
		// Evict the least recently used entry; its slot serves the new key.
		s = h.tail
		h.unplace(h.tag(h.key(s)), s)
		h.unlink(s)
		h.n--
	case h.free >= 0:
		s = h.free
		h.free = h.slots[s].next
	default:
		s = int32(len(h.slots))
		h.slots = append(h.slots, hashSlot{})
		h.keys = append(h.keys, key...)
	}
	if 2*(h.n+1) > len(h.index) {
		h.grow()
	}
	copy(h.key(s), key)
	h.slots[s].value = h.newValue(value)
	h.place(tag, s)
	h.pushFront(s)
	h.n++
	return nil
}

func (h *hashMap) Delete(key []byte) error {
	if err := checkKey(h.spec, key); err != nil {
		return err
	}
	tag := h.tag(key)
	s := h.find(key, tag)
	if s < 0 {
		return errKeyNotExist
	}
	h.unplace(tag, s)
	h.unlink(s)
	h.slots[s] = hashSlot{next: h.free} // drops the map's reference to the value
	h.free = s
	h.n--
	return nil
}

// Iterate walks in recency order, never hash order. The successor is
// read before fn runs, so fn may delete the entry it was handed.
func (h *hashMap) Iterate(fn func(key, value []byte) bool) {
	for s := h.head; s >= 0; {
		next := h.slots[s].next
		if !fn(h.key(s), h.slots[s].value) {
			return
		}
		s = next
	}
}

func (h *hashMap) Len() int { return h.n }
