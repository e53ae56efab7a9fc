package maps

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ehdl/internal/ebpf"
	"ehdl/internal/obs"
	"ehdl/internal/protect"
)

// modelMap is the reference the flat store is checked against: the
// entries in one slice in recency order, front first.
type modelMap struct {
	spec    ebpf.MapSpec
	lru     bool
	entries []modelEntry
}

type modelEntry struct {
	key  string
	val  []byte // what the entry must hold
	ref  []byte // the store's own bytes for it, kept since the insert
	slot int
}

var errModelSize = errors.New("model: wrong key or value size")

func (m *modelMap) find(key []byte) int {
	for i := range m.entries {
		if m.entries[i].key == string(key) {
			return i
		}
	}
	return -1
}

// touch is what a lookup or update of entry i does to the order.
func (m *modelMap) touch(i int) *modelEntry {
	if m.lru {
		e := m.entries[i]
		copy(m.entries[1:i+1], m.entries[:i])
		m.entries[0], i = e, 0
	}
	return &m.entries[i]
}

func (m *modelMap) lookup(key []byte) *modelEntry {
	if i := m.find(key); i >= 0 {
		return m.touch(i)
	}
	return nil
}

// update returns the entry an insert pushed out, if any.
func (m *modelMap) update(key, val []byte, flag UpdateFlag) (evicted *modelEntry, err error) {
	if len(key) != m.spec.KeySize || len(val) != m.spec.ValueSize {
		return nil, errModelSize
	}
	if i := m.find(key); i >= 0 {
		if flag == UpdateNoExist {
			return nil, errKeyExist
		}
		copy(m.touch(i).val, val)
		return nil, nil
	}
	if flag == UpdateExist {
		return nil, errKeyNotExist
	}
	if last := len(m.entries) - 1; last+1 >= m.spec.MaxEntries {
		if !m.lru {
			return nil, errMapFull
		}
		evicted, m.entries = &m.entries[last], m.entries[:last]
	}
	e := modelEntry{key: string(key), val: append([]byte(nil), val...)}
	m.entries = append([]modelEntry{e}, m.entries...)
	return evicted, nil
}

func (m *modelMap) delete(key []byte) (*modelEntry, error) {
	if len(key) != m.spec.KeySize {
		return nil, errModelSize
	}
	i := m.find(key)
	if i < 0 {
		return nil, errKeyNotExist
	}
	e := m.entries[i]
	m.entries = append(m.entries[:i:i], m.entries[i+1:]...)
	return &e, nil
}

func sameErr(got, want error) bool {
	for _, e := range []error{errKeyExist, errKeyNotExist, errMapFull} {
		if errors.Is(want, e) {
			return errors.Is(got, e)
		}
	}
	return (got == nil) == (want == nil)
}

// runHashModel decodes data into a map geometry and an op sequence and
// drives the store and the model with it: equal results, errors, length
// and iteration order after every op; every value reference handed out
// since an entry's insert is still that entry's storage; and a write
// through the reference of an entry that is gone — the late store of a
// packet still in flight — reaches no live entry.
func runHashModel(data []byte) error {
	if len(data) < 4 {
		return nil
	}
	spec := ebpf.MapSpec{Name: "h", Kind: ebpf.MapHash,
		KeySize: 1 + int(data[1]%16), ValueSize: 1 + int(data[2]%24), MaxEntries: 1 + int(data[3]%64)}
	model := &modelMap{spec: spec, lru: data[0]&1 == 1}
	if model.lru {
		spec.Kind = ebpf.MapLRUHash
	}
	m, err := New(spec)
	if err != nil {
		return err
	}
	keySpace := spec.MaxEntries + spec.MaxEntries/2 + 2 // ≤ 98: the map fills, and misses happen
	var orphans [][]byte
	orphan := func(e *modelEntry) {
		if e != nil {
			orphans = append(orphans, e.ref)
		}
	}
	check := func(step int, what string) error {
		if m.Len() != len(model.entries) {
			return fmt.Errorf("step %d (%s): Len %d, model %d", step, what, m.Len(), len(model.entries))
		}
		for _, o := range orphans {
			for i := range o {
				o[i] = 0xEE
			}
		}
		slots := map[int]string{}
		for _, e := range model.entries {
			if !bytes.Equal(e.ref, e.val) {
				return fmt.Errorf("step %d (%s): key %x's reference reads %x, want %x", step, what, e.key, e.ref, e.val)
			}
			if other, dup := slots[e.slot]; dup || e.slot < 0 || e.slot >= spec.MaxEntries {
				return fmt.Errorf("step %d (%s): key %x in slot %d (also %x) of %d", step, what, e.key, e.slot, other, spec.MaxEntries)
			}
			slots[e.slot] = e.key
		}
		return nil
	}
	for step, ops := 0, data[4:]; len(ops) >= 3; step, ops = step+1, ops[3:] {
		op, k, v := ops[0]%10, ops[1], ops[2]
		key := make([]byte, spec.KeySize)
		key[0] = byte(int(k) % keySpace)
		key[len(key)-1] ^= 0xA5
		val := bytes.Repeat([]byte{v}, spec.ValueSize)
		what := fmt.Sprintf("op %d key %x", op, key)
		switch op {
		case 0, 1:
			got, slot, ok := m.LookupSlot(key)
			if op == 1 {
				got, ok = m.Lookup(key)
			}
			want := model.lookup(key)
			if ok != (want != nil) {
				return fmt.Errorf("step %d (%s): hit %v, model %v", step, what, ok, want != nil)
			}
			if ok && (&got[0] != &want.ref[0] || len(got) != spec.ValueSize || op == 0 && slot != want.slot) {
				return fmt.Errorf("step %d (%s): lookup returned other storage or slot %d, want %d", step, what, slot, want.slot)
			}
		case 2, 3, 4, 5:
			flag := []UpdateFlag{UpdateAny, UpdateAny, UpdateNoExist, UpdateExist}[op-2]
			inserts := model.find(key) < 0
			evicted, wantErr := model.update(key, val, flag)
			if err := m.Update(key, val, flag); !sameErr(err, wantErr) {
				return fmt.Errorf("step %d (%s): Update error %v, model %v", step, what, err, wantErr)
			}
			orphan(evicted)
			if wantErr == nil && inserts {
				// The new entry is already at the front, so this lookup
				// moves nothing.
				e := &model.entries[0]
				if e.ref, e.slot, _ = m.LookupSlot(key); e.ref == nil {
					return fmt.Errorf("step %d (%s): inserted key is absent", step, what)
				}
			}
		case 6:
			gone, wantErr := model.delete(key)
			if err := m.Delete(key); !sameErr(err, wantErr) {
				return fmt.Errorf("step %d (%s): Delete error %v, model %v", step, what, err, wantErr)
			}
			orphan(gone)
		case 7: // a program's store through the pointer
			if n := len(model.entries); n > 0 {
				e := &model.entries[int(k)%n]
				e.ref[0] ^= v
				e.val[0] ^= v
			}
		case 8: // wrong sizes
			_, ok := m.Lookup(key[:len(key)-1])
			err1 := m.Update(append(key, 0), val, UpdateAny)
			err2 := m.Update(key, val[:len(val)-1], UpdateAny)
			if ok || err1 == nil || err2 == nil || m.Delete(nil) == nil {
				return fmt.Errorf("step %d: a wrong-sized key or value was accepted", step)
			}
		case 9:
			i, stop := 0, len(model.entries)
			if v&1 == 1 {
				stop = int(k) % (stop + 1)
			}
			var bad error
			m.Iterate(func(key, value []byte) bool {
				if i == stop {
					return false
				}
				if e := model.entries[i]; string(key) != e.key || &value[0] != &e.ref[0] {
					bad = fmt.Errorf("step %d: Iterate position %d is key %x, model %x", step, i, key, e.key)
				}
				i++
				return bad == nil
			})
			if bad == nil && i != stop {
				bad = fmt.Errorf("step %d: Iterate visited %d entries, want %d", step, i, stop)
			}
			if bad != nil {
				return bad
			}
		}
		if err := check(step, what); err != nil {
			return err
		}
		if len(orphans) > 64 {
			orphans = orphans[32:]
		}
	}
	return nil
}

// TestPropertyHashAgainstModel runs random op sequences over both kinds
// and every MaxEntries from 1 to 64 against the reference.
func TestPropertyHashAgainstModel(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 512; i++ {
		data := make([]byte, 4+3*600)
		r.Read(data)
		data[0], data[3] = byte(i), byte(i/2) // both kinds at every size
		if err := runHashModel(data); err != nil {
			t.Fatalf("sequence %d (lru %v, %d entries): %v", i, data[0]&1 == 1, 1+data[3]%64, err)
		}
	}
}

// FuzzHashModel is the same check with the sequence left to the fuzzer.
func FuzzHashModel(f *testing.F) {
	r := rand.New(rand.NewSource(2))
	for _, head := range [][4]byte{{0, 3, 7, 0}, {1, 3, 7, 0}, {1, 0, 0, 3}, {0, 15, 23, 63}, {1, 11, 4, 16}} {
		data := make([]byte, 4+3*200)
		r.Read(data)
		copy(data, head[:])
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := runHashModel(data); err != nil {
			t.Fatal(err)
		}
	})
}

// TestHashIndexGrowth takes the index through every doubling and back
// down through a long run of deletes, against a Go map.
func TestHashIndexGrowth(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	m := mustNew(ebpf.MapSpec{Name: "h", Kind: ebpf.MapHash, KeySize: 4, ValueSize: 8, MaxEntries: 1 << 20})
	model := map[uint32]uint64{}
	refs := map[uint32][]byte{}
	for i := 0; i < 60_000; i++ {
		k := uint32(r.Intn(8192))
		switch op := r.Intn(10); {
		case op < 5 && i < 30_000 || op < 2:
			v := r.Uint64()
			if err := m.Update(u32key(k), u64val(v), UpdateAny); err != nil {
				t.Fatal(err)
			}
			if _, had := model[k]; !had {
				refs[k], _ = m.Lookup(u32key(k))
			}
			model[k] = v
		case op < 8:
			_, had := model[k]
			if err := m.Delete(u32key(k)); had != (err == nil) {
				t.Fatalf("step %d: Delete(%d) = %v, present %v", i, k, err, had)
			}
			delete(model, k)
			delete(refs, k)
		default:
			v, ok := m.Lookup(u32key(k))
			if want, had := model[k]; ok != had || ok && (&v[0] != &refs[k][0] || !bytes.Equal(v, u64val(want))) {
				t.Fatalf("step %d: Lookup(%d) = %x, %v; want %x, %v", i, k, v, ok, want, had)
			}
		}
		if m.Len() != len(model) {
			t.Fatalf("step %d: Len %d, want %d", i, m.Len(), len(model))
		}
	}
	for k, want := range model {
		if v, ok := m.Lookup(u32key(k)); !ok || !bytes.Equal(v, u64val(want)) {
			t.Fatalf("key %d lost", k)
		}
	}
}

// TestSharedHashLookupsRace: RSS replicas share a read-only hash map
// across goroutines, so a lookup on a plain hash map must write nothing.
// Meaningful under -race (make test runs this package there).
func TestSharedHashLookupsRace(t *testing.T) {
	m := mustNew(ebpf.MapSpec{Name: "acl", Kind: ebpf.MapHash, KeySize: 4, ValueSize: 8, MaxEntries: 256}).(Slotted)
	for i := uint32(0); i < 200; i++ {
		if err := m.Update(u32key(i), u64val(uint64(i)), UpdateAny); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20_000; i++ {
				k := uint32(i*7+g) % 256
				v, slot, ok := m.LookupSlot(u32key(k))
				if ok != (k < 200) || ok && (!bytes.Equal(v, u64val(uint64(k))) || slot < 0 || slot >= 256) {
					t.Errorf("goroutine %d: LookupSlot(%d) = %x, %d, %v", g, k, v, slot, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSlotsOfTheOtherKinds: an array entry's slot is its index, an LPM
// match's slot is the matched prefix's and goes to the next insert once
// freed, and the wrappers pass the wrapped map's slot through.
func TestSlotsOfTheOtherKinds(t *testing.T) {
	arr := mustNew(ebpf.MapSpec{Name: "a", Kind: ebpf.MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 4}).(Slotted)
	if _, slot, ok := arr.LookupSlot(u32key(3)); !ok || slot != 3 {
		t.Errorf("array index 3: slot %d, hit %v", slot, ok)
	}
	if _, _, ok := arr.LookupSlot(u32key(4)); ok {
		t.Error("array index past MaxEntries hit")
	}
	if _, _, ok := arr.LookupSlot([]byte{1}); ok {
		t.Error("array lookup with a short key hit")
	}

	lpm := mustNew(ebpf.MapSpec{Name: "t", Kind: ebpf.MapLPMTrie, KeySize: 8, ValueSize: 4, MaxEntries: 3}).(Slotted)
	prefix := func(plen uint32, a byte) []byte { return append(u32key(plen), a, 0, 0, 0) }
	for i, p := range [][]byte{prefix(8, 10), prefix(8, 11), prefix(8, 12)} {
		if err := lpm.Update(p, []byte{byte(i), 0, 0, 0}, UpdateAny); err != nil {
			t.Fatal(err)
		}
		if _, slot, ok := lpm.LookupSlot(prefix(32, 10+byte(i))); !ok || slot != i {
			t.Errorf("prefix %d: slot %d, hit %v", i, slot, ok)
		}
	}
	if err := lpm.Delete(prefix(8, 11)); err != nil {
		t.Fatal(err)
	}
	if err := lpm.Update(prefix(16, 13), []byte{9, 0, 0, 0}, UpdateAny); err != nil {
		t.Fatal(err)
	}
	if v, slot, ok := lpm.LookupSlot(prefix(32, 13)); !ok || slot != 1 || v[0] != 9 {
		t.Errorf("the freed slot 1 went to slot %d (hit %v)", slot, ok)
	}
	if _, _, ok := lpm.LookupSlot(prefix(32, 11)); ok {
		t.Error("deleted prefix still matches")
	}

	reg := obs.NewRegistry()
	wrapped := observe(newProtected(arr, protect.SECDED{}), reg)
	if v, slot, ok := wrapped.LookupSlot(u32key(2)); !ok || slot != 2 || len(v) != 8 {
		t.Errorf("wrapped array index 2: slot %d, hit %v", slot, ok)
	}
	if _, _, ok := wrapped.LookupSlot(u32key(9)); ok {
		t.Error("wrapped array index past MaxEntries hit")
	}
	if n := reg.Counter("maps.a.lookups").Value(); n != 2 {
		t.Errorf("%d lookups counted, want 2", n)
	}
	if n := reg.Counter("maps.a.misses").Value(); n != 1 {
		t.Errorf("%d misses counted, want 1", n)
	}
}
