package maps

import (
	"container/list"

	"ehdl/internal/ebpf"
)

// hashEntry is one live key/value pair. The value buffer is allocated
// once and reused in place by updates, so references returned by Lookup
// stay valid until the entry is deleted or evicted.
type hashEntry struct {
	key   string
	value []byte
	lru   *list.Element // position in the recency list (LRU maps only)
}

// hashMap is BPF_MAP_TYPE_HASH and, with evict set,
// BPF_MAP_TYPE_LRU_HASH. The LRU variant evicts the least recently used
// entry instead of failing when full, matching the kernel's behaviour
// closely enough for the evaluation workloads (connection tables that
// must not reject new flows).
type hashMap struct {
	spec    ebpf.MapSpec
	entries map[string]*hashEntry
	order   *list.List // front = most recently used
	evict   bool
}

func newHash(spec ebpf.MapSpec, evict bool) *hashMap {
	return &hashMap{
		spec:    spec,
		entries: make(map[string]*hashEntry, spec.MaxEntries),
		order:   list.New(),
		evict:   evict,
	}
}

func (h *hashMap) Spec() ebpf.MapSpec { return h.spec }

func (h *hashMap) touch(e *hashEntry) {
	if h.evict {
		h.order.MoveToFront(e.lru)
	}
}

func (h *hashMap) Lookup(key []byte) ([]byte, bool) {
	if err := checkKey(h.spec, key); err != nil {
		return nil, false
	}
	e, ok := h.entries[string(key)]
	if !ok {
		return nil, false
	}
	h.touch(e)
	return e.value, true
}

func (h *hashMap) Update(key, value []byte, flag UpdateFlag) error {
	if err := checkKey(h.spec, key); err != nil {
		return err
	}
	if err := checkValue(h.spec, value); err != nil {
		return err
	}
	if e, ok := h.entries[string(key)]; ok {
		if flag == UpdateNoExist {
			return ErrKeyExist
		}
		copy(e.value, value)
		h.touch(e)
		return nil
	}
	if flag == UpdateExist {
		return ErrKeyNotExist
	}
	if len(h.entries) >= h.spec.MaxEntries {
		if !h.evict {
			return ErrMapFull
		}
		// Evict the least recently used entry.
		back := h.order.Back()
		if back == nil {
			return ErrMapFull
		}
		victim := back.Value.(*hashEntry)
		h.order.Remove(back)
		delete(h.entries, victim.key)
	}
	k := string(key)
	e := &hashEntry{key: k, value: append([]byte(nil), value...)}
	e.lru = h.order.PushFront(e)
	h.entries[k] = e
	return nil
}

func (h *hashMap) Delete(key []byte) error {
	if err := checkKey(h.spec, key); err != nil {
		return err
	}
	e, ok := h.entries[string(key)]
	if !ok {
		return ErrKeyNotExist
	}
	h.order.Remove(e.lru)
	delete(h.entries, e.key)
	return nil
}

func (h *hashMap) Iterate(fn func(key, value []byte) bool) {
	// Walk in recency order, which is deterministic, unlike Go map
	// iteration.
	for el := h.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*hashEntry)
		if !fn([]byte(e.key), e.value) {
			return
		}
	}
}

func (h *hashMap) Len() int { return len(h.entries) }
