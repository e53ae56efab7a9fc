package maps

import (
	"encoding/binary"
	"fmt"

	"ehdl/internal/ebpf"
)

// lpmMap is BPF_MAP_TYPE_LPM_TRIE, the longest-prefix-match map used by
// routing applications. Keys follow the kernel layout: a 4-byte
// little-endian prefix length followed by the address bytes
// (KeySize - 4 of them). Lookup matches the stored entry with the
// longest prefix that covers the queried address; the queried prefix
// length acts as an upper bound.
type lpmMap struct {
	spec ebpf.MapSpec
	root *lpmNode
	n    int
	// Slots: freed ones first, then the next never-used one.
	free  []int
	slots int
}

type lpmNode struct {
	children [2]*lpmNode
	entry    *lpmEntry // nil for interior nodes
}

// lpmEntry is one stored prefix. The value buffer is allocated per
// insert and updated in place, so references returned by Lookup stay
// valid until the entry is deleted and are never reused after.
type lpmEntry struct {
	key, value []byte
	slot       int
}

func newLPM(spec ebpf.MapSpec) *lpmMap {
	return &lpmMap{spec: spec, root: &lpmNode{}}
}

func (t *lpmMap) Spec() ebpf.MapSpec { return t.spec }

// addrBits returns the number of address bits in a key.
func (t *lpmMap) addrBits() int { return (t.spec.KeySize - 4) * 8 }

func (t *lpmMap) splitKey(key []byte) (prefixLen int, addr []byte, err error) {
	if err := checkKey(t.spec, key); err != nil {
		return 0, nil, err
	}
	prefixLen = int(binary.LittleEndian.Uint32(key[:4]))
	if prefixLen > t.addrBits() {
		return 0, nil, fmt.Errorf("maps: %s: prefix length %d exceeds %d bits", t.spec.Name, prefixLen, t.addrBits())
	}
	return prefixLen, key[4:], nil
}

func bitAt(addr []byte, i int) int {
	return int(addr[i/8]>>(7-i%8)) & 1
}

func (t *lpmMap) Lookup(key []byte) ([]byte, bool) {
	v, _, ok := t.LookupSlot(key)
	return v, ok
}

// LookupSlot implements Slotted: the slot is the matched prefix's.
func (t *lpmMap) LookupSlot(key []byte) ([]byte, int, bool) {
	prefixLen, addr, err := t.splitKey(key)
	if err != nil {
		return nil, 0, false
	}
	var best *lpmEntry
	node := t.root
	for depth := 0; node != nil; depth++ {
		if node.entry != nil {
			best = node.entry
		}
		if depth >= prefixLen {
			break
		}
		node = node.children[bitAt(addr, depth)]
	}
	if best == nil {
		return nil, 0, false
	}
	return best.value, best.slot, true
}

func (t *lpmMap) Update(key, value []byte, flag UpdateFlag) error {
	prefixLen, addr, err := t.splitKey(key)
	if err != nil {
		return err
	}
	if err := checkValue(t.spec, value); err != nil {
		return err
	}
	node := t.root
	for depth := 0; depth < prefixLen; depth++ {
		b := bitAt(addr, depth)
		if node.children[b] == nil {
			node.children[b] = &lpmNode{}
		}
		node = node.children[b]
	}
	if node.entry != nil {
		if flag == UpdateNoExist {
			return errKeyExist
		}
		copy(node.entry.value, value)
		return nil
	}
	if flag == UpdateExist {
		return errKeyNotExist
	}
	if t.n >= t.spec.MaxEntries {
		return errMapFull
	}
	e := &lpmEntry{key: append([]byte(nil), key...), value: append([]byte(nil), value...), slot: t.slots}
	if last := len(t.free) - 1; last >= 0 {
		e.slot, t.free = t.free[last], t.free[:last]
	} else {
		t.slots++
	}
	node.entry = e
	t.n++
	return nil
}

func (t *lpmMap) Delete(key []byte) error {
	prefixLen, addr, err := t.splitKey(key)
	if err != nil {
		return err
	}
	node := t.root
	for depth := 0; depth < prefixLen && node != nil; depth++ {
		node = node.children[bitAt(addr, depth)]
	}
	if node == nil || node.entry == nil {
		return errKeyNotExist
	}
	t.free = append(t.free, node.entry.slot)
	node.entry = nil
	t.n--
	return nil
}

func (t *lpmMap) Iterate(fn func(key, value []byte) bool) {
	var walk func(n *lpmNode) bool
	walk = func(n *lpmNode) bool {
		if n == nil {
			return true
		}
		if n.entry != nil && !fn(n.entry.key, n.entry.value) {
			return false
		}
		return walk(n.children[0]) && walk(n.children[1])
	}
	walk(t.root)
}

func (t *lpmMap) Len() int { return t.n }
