package maps

import (
	"encoding/binary"
	"fmt"

	"ehdl/internal/ebpf"
)

// arrayMap is BPF_MAP_TYPE_ARRAY: all entries exist from creation, keys
// are u32 indices, and values are zero-initialised. DEVMAPs share the
// implementation.
type arrayMap struct {
	spec    ebpf.MapSpec
	storage []byte
}

func newArray(spec ebpf.MapSpec) *arrayMap {
	return &arrayMap{
		spec:    spec,
		storage: make([]byte, spec.MaxEntries*spec.ValueSize),
	}
}

func (a *arrayMap) Spec() ebpf.MapSpec { return a.spec }

func (a *arrayMap) index(key []byte) (int, error) {
	if err := checkKey(a.spec, key); err != nil {
		return 0, err
	}
	idx := int(binary.LittleEndian.Uint32(key))
	if idx >= a.spec.MaxEntries {
		return 0, fmt.Errorf("maps: %s: index %d out of range (max %d): %w",
			a.spec.Name, idx, a.spec.MaxEntries, errKeyNotExist)
	}
	return idx, nil
}

// valueAt returns the storage slice of entry idx without key checks;
// it is used by the simulators to give map values stable addresses.
func (a *arrayMap) valueAt(idx int) []byte {
	off := idx * a.spec.ValueSize
	return a.storage[off : off+a.spec.ValueSize : off+a.spec.ValueSize]
}

func (a *arrayMap) Lookup(key []byte) ([]byte, bool) {
	v, _, ok := a.LookupSlot(key)
	return v, ok
}

// LookupSlot implements Slotted: an array entry's slot is its index.
// A miss builds no error text: it is a per-packet outcome.
func (a *arrayMap) LookupSlot(key []byte) ([]byte, int, bool) {
	if len(key) != a.spec.KeySize {
		return nil, 0, false
	}
	idx := int(binary.LittleEndian.Uint32(key))
	if idx >= a.spec.MaxEntries {
		return nil, 0, false
	}
	return a.valueAt(idx), idx, true
}

func (a *arrayMap) Update(key, value []byte, flag UpdateFlag) error {
	if flag == UpdateNoExist {
		// Array entries always exist.
		return errKeyExist
	}
	if err := checkValue(a.spec, value); err != nil {
		return err
	}
	idx, err := a.index(key)
	if err != nil {
		return err
	}
	copy(a.valueAt(idx), value)
	return nil
}

func (a *arrayMap) Delete(key []byte) error {
	// The kernel rejects deletes on array maps.
	return fmt.Errorf("maps: %s: delete is not supported on array maps", a.spec.Name)
}

func (a *arrayMap) Iterate(fn func(key, value []byte) bool) {
	var key [4]byte
	for i := 0; i < a.spec.MaxEntries; i++ {
		binary.LittleEndian.PutUint32(key[:], uint32(i))
		if !fn(key[:], a.valueAt(i)) {
			return
		}
	}
}

func (a *arrayMap) Len() int { return a.spec.MaxEntries }
