package maps

import (
	"ehdl/internal/ebpf"
	"ehdl/internal/obs"
)

// Observed wraps a map with per-operation counters, the port-level view
// of map traffic every consumer shares: the reference interpreter, the
// pipeline simulator and the host side all resolve maps through the
// set, so a wrapped map counts whoever touches it. The counters live in
// an obs.Registry under maps.<name>.<op>, next to the simulator's
// hwsim.* instruments.
//
// Counting sits outside the data path semantics — Lookup still returns
// the pointer-stable reference, Iterate still exposes raw storage — so
// an observed run stays bit-identical to an unobserved one.
type Observed struct {
	m Map

	lookups *obs.Counter
	misses  *obs.Counter
	updates *obs.Counter
	deletes *obs.Counter
}

// observe wraps m, registering its counters under maps.<name>.*.
func observe(m Map, reg *obs.Registry) *Observed {
	name := "maps." + m.Spec().Name
	return &Observed{
		m:       m,
		lookups: reg.Counter(name + ".lookups"),
		misses:  reg.Counter(name + ".misses"),
		updates: reg.Counter(name + ".updates"),
		deletes: reg.Counter(name + ".deletes"),
	}
}

// asObserved reports whether a map is observation-wrapped.
func asObserved(m Map) (*Observed, bool) {
	o, ok := m.(*Observed)
	return o, ok
}

// Unwrap returns the wrapped map (protection wrappers compose: an
// Observed may wrap a Protected).
func (o *Observed) Unwrap() Map { return o.m }

// Spec implements Map.
func (o *Observed) Spec() ebpf.MapSpec { return o.m.Spec() }

// Lookup implements Map, counting hits and misses.
func (o *Observed) Lookup(key []byte) ([]byte, bool) {
	v, ok := o.m.Lookup(key)
	o.count(ok)
	return v, ok
}

// LookupSlot implements Slotted, counted like Lookup; the slot is the
// wrapped map's. An Observed around a host view counts the host port
// and is never asked: no program runs against it.
func (o *Observed) LookupSlot(key []byte) ([]byte, int, bool) {
	v, slot, ok := o.m.(Slotted).LookupSlot(key)
	o.count(ok)
	return v, slot, ok
}

func (o *Observed) count(hit bool) {
	o.lookups.Inc()
	if !hit {
		o.misses.Inc()
	}
}

// Update implements Map.
func (o *Observed) Update(key, value []byte, flag UpdateFlag) error {
	o.updates.Inc()
	return o.m.Update(key, value, flag)
}

// Delete implements Map.
func (o *Observed) Delete(key []byte) error {
	o.deletes.Inc()
	return o.m.Delete(key)
}

// Iterate implements Map, passing the raw storage through uncounted
// (it is the debug/host walk, not a port operation).
func (o *Observed) Iterate(fn func(key, value []byte) bool) { o.m.Iterate(fn) }

// Len implements Map.
func (o *Observed) Len() int { return o.m.Len() }

// ObserveSet wraps every map of a set, swapping the wrappers into both
// indexes exactly like ProtectSet, and returns them in mapID order.
// Maps already wrapped are returned as-is.
func ObserveSet(s *Set, reg *obs.Registry) []*Observed {
	out := make([]*Observed, 0, len(s.byID))
	for i, m := range s.byID {
		o, ok := asObserved(m)
		if !ok {
			o = observe(m, reg)
			s.byID[i] = o
			s.byName[o.Spec().Name] = o
		}
		out = append(out, o)
	}
	return out
}
