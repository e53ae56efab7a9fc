// Package maps implements the eBPF map substrate: the persistent memory
// that lives across program executions (Section 2.2 of the eHDL paper).
//
// Maps are created from ebpf.MapSpec declarations when a program is
// loaded. The same objects are shared by the reference virtual machine,
// the hardware pipeline simulator (as the backing store of eHDLmap
// blocks) and the "host" side of an application, mirroring how a real
// deployment shares map memory between the NIC and userspace tools.
//
// Lookup returns a reference to the stored value, not a copy: eBPF
// programs write through the pointer returned by bpf_map_lookup_elem,
// so value buffers are pointer-stable from insert until delete, and a
// deleted or evicted entry's bytes are never handed to another key (a
// packet still in flight may hold the pointer).
package maps

import (
	"fmt"
	"sync"

	"ehdl/internal/ebpf"
)

// UpdateFlag mirrors the kernel's bpf_map_update_elem flags.
type UpdateFlag int

// Update flags.
const (
	UpdateAny     UpdateFlag = 0 // create or overwrite
	UpdateNoExist UpdateFlag = 1 // create only
	UpdateExist   UpdateFlag = 2 // overwrite only
)

// Map is the common behaviour of all map kinds.
type Map interface {
	// Spec returns the declaration the map was created from.
	Spec() ebpf.MapSpec
	// Lookup returns a pointer-stable reference to the value stored
	// under key, or false if the key is absent.
	Lookup(key []byte) ([]byte, bool)
	// Update stores value under key subject to flag semantics.
	Update(key, value []byte, flag UpdateFlag) error
	// Delete removes key. It is an error to delete an absent key.
	Delete(key []byte) error
	// Iterate visits entries until fn returns false. Both slices alias
	// map storage: writes to value are writes to the entry; key must
	// not be written, and is good only until fn returns or the map
	// changes, whichever is first — a caller that keeps a key copies it.
	Iterate(fn func(key, value []byte) bool)
	// Len returns the number of live entries.
	Len() int
}

// Slotted is a map the data plane executes against — every kind New
// makes, and the Protected and Observed wrappers around one. Its entries
// sit in slots, integers in [0, MaxEntries) that stay with an entry from
// insert to delete, and a lookup names the slot it hit: the address space
// derives the value's address from it (vm.MemSpace) instead of keeping
// a table of its own keyed by the same bytes. A freed slot goes to the
// next insert; the host views (Synchronized, the RSS merge) hand out
// copies, have no slots and never back a running program.
type Slotted interface {
	Map
	// LookupSlot is Lookup that also returns the entry's slot.
	LookupSlot(key []byte) (value []byte, slot int, ok bool)
}

// errKeyNotExist is returned when an operation requires a present key.
var errKeyNotExist = fmt.Errorf("maps: key does not exist")

// errKeyExist is returned by Update with UpdateNoExist on a present key.
var errKeyExist = fmt.Errorf("maps: key already exists")

// errMapFull is returned when the map is at MaxEntries.
var errMapFull = fmt.Errorf("maps: map is full")

// New creates a map object for the declaration.
func New(spec ebpf.MapSpec) (Slotted, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	switch spec.Kind {
	case ebpf.MapArray, ebpf.MapDevMap:
		return newArray(spec), nil
	case ebpf.MapHash:
		return newHash(spec, false), nil
	case ebpf.MapLRUHash:
		return newHash(spec, true), nil
	case ebpf.MapLPMTrie:
		return newLPM(spec), nil
	}
	return nil, fmt.Errorf("maps: unsupported kind %v", spec.Kind)
}

// Set groups the maps of a loaded program, indexed both by name and by
// position (the map identifier used by the compiler and simulators).
type Set struct {
	byName map[string]Map
	byID   []Map
}

// NewSet instantiates every map a program declares.
func NewSet(prog *ebpf.Program) (*Set, error) {
	s := &Set{byName: make(map[string]Map, len(prog.Maps))}
	for _, spec := range prog.Maps {
		m, err := New(spec)
		if err != nil {
			return nil, fmt.Errorf("maps: program %q: %w", prog.Name, err)
		}
		s.byName[spec.Name] = m
		s.byID = append(s.byID, m)
	}
	return s, nil
}

// SetOf assembles a set from pre-built maps in declaration order. The
// multi-queue RSS engine uses it to compose per-replica sets that mix
// shared read-only instances with per-queue banks, and to expose the
// merged host view, without re-instantiating maps from the program.
func SetOf(ms ...Map) *Set {
	s := &Set{byName: make(map[string]Map, len(ms))}
	for _, m := range ms {
		s.byName[m.Spec().Name] = m
		s.byID = append(s.byID, m)
	}
	return s
}

// ByName returns the named map.
func (s *Set) ByName(name string) (Map, bool) {
	m, ok := s.byName[name]
	return m, ok
}

// ByID returns the map with the given identifier (position in the
// program's declaration order).
func (s *Set) ByID(id int) (Map, bool) {
	if id < 0 || id >= len(s.byID) {
		return nil, false
	}
	return s.byID[id], true
}

// Len returns the number of maps in the set.
func (s *Set) Len() int { return len(s.byID) }

// Synchronized wraps a map with a mutex for concurrent host/data-plane
// access (Section 6: the host reads statistics while the NIC writes).
type Synchronized struct {
	mu sync.Mutex
	m  Map
}

// Synchronize wraps m.
func Synchronize(m Map) *Synchronized { return &Synchronized{m: m} }

// Spec implements Map.
func (s *Synchronized) Spec() ebpf.MapSpec { return s.m.Spec() }

// Lookup implements Map. The returned reference aliases map storage.
func (s *Synchronized) Lookup(key []byte) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.Lookup(key)
}

// Update implements Map.
func (s *Synchronized) Update(key, value []byte, flag UpdateFlag) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.Update(key, value, flag)
}

// Delete implements Map.
func (s *Synchronized) Delete(key []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.Delete(key)
}

// Iterate implements Map. Unlike the raw maps, the visited slices are
// private snapshots, not aliases of map storage: the walk copies every
// entry under the lock and invokes fn only after releasing it, so fn
// may re-enter the same Synchronized map (Lookup, Update, Delete,
// another Iterate) without deadlocking on the non-reentrant mutex.
// Mutations made by fn are consequently not visible through the slices
// it was handed, and entries updated concurrently after the snapshot
// may be visited with their pre-snapshot values.
func (s *Synchronized) Iterate(fn func(key, value []byte) bool) {
	type entry struct{ key, value []byte }
	s.mu.Lock()
	var snap []entry
	s.m.Iterate(func(key, value []byte) bool {
		snap = append(snap, entry{
			key:   append([]byte(nil), key...),
			value: append([]byte(nil), value...),
		})
		return true
	})
	s.mu.Unlock()
	for _, e := range snap {
		if !fn(e.key, e.value) {
			return
		}
	}
}

// Len implements Map.
func (s *Synchronized) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.Len()
}

func checkKey(spec ebpf.MapSpec, key []byte) error {
	if len(key) != spec.KeySize {
		return fmt.Errorf("maps: %s: key size %d, want %d", spec.Name, len(key), spec.KeySize)
	}
	return nil
}

func checkValue(spec ebpf.MapSpec, value []byte) error {
	if len(value) != spec.ValueSize {
		return fmt.Errorf("maps: %s: value size %d, want %d", spec.Name, len(value), spec.ValueSize)
	}
	return nil
}
