package hwsim

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"

	"ehdl/internal/ebpf"
)

// Verdicts is a verdict histogram: how many packets retired with each
// XDP action. The five actions of the UAPI are counted in a fixed array,
// so counting, copying and merging them allocates nothing; a program
// that returns any other R0 lands in a map made on first use. The map is
// never written once a Verdicts holds it — every change builds a new
// one — so a copy of a Verdicts is as independent as a copy of the
// array. A count of zero is no entry: the zero value is the empty
// histogram, and two histograms with the same counts are DeepEqual.
//
// Its JSON is what a map[ebpf.XDPAction]uint64 encodes to (decimal keys
// in string order), so reports and journals read the same either way.
type Verdicts struct {
	n     [ebpf.XDPRedirect + 1]uint64
	other map[ebpf.XDPAction]uint64
}

// Add counts n retirements with action a.
func (v *Verdicts) Add(a ebpf.XDPAction, n uint64) {
	if int(a) < len(v.n) {
		v.n[a] += n
		return
	}
	if n > 0 {
		m := maps.Clone(v.other)
		if m == nil {
			m = map[ebpf.XDPAction]uint64{}
		}
		m[a] += n
		v.other = m
	}
}

// Count returns the retirements with action a.
func (v Verdicts) Count(a ebpf.XDPAction) uint64 {
	if int(a) < len(v.n) {
		return v.n[a]
	}
	return v.other[a]
}

// Merge adds every count of o.
func (v *Verdicts) Merge(o Verdicts) {
	for a, n := range o.n {
		v.n[a] += n
	}
	for a, n := range o.other {
		v.Add(a, n)
	}
}

// IsZero reports whether the histogram counts nothing.
func (v Verdicts) IsZero() bool { return v.n == [len(v.n)]uint64{} && len(v.other) == 0 }

// Each calls fn for every action with a non-zero count, in action order.
func (v Verdicts) Each(fn func(a ebpf.XDPAction, n uint64)) {
	for a, n := range v.n {
		if n > 0 {
			fn(ebpf.XDPAction(a), n)
		}
	}
	if len(v.other) == 0 {
		return
	}
	rest := make([]ebpf.XDPAction, 0, len(v.other))
	for a := range v.other {
		rest = append(rest, a)
	}
	slices.Sort(rest)
	for _, a := range rest {
		fn(a, v.other[a])
	}
}

// since returns what v counted beyond base, an earlier value of the
// same live histogram.
func (v Verdicts) since(base Verdicts) Verdicts {
	d := Verdicts{n: v.n}
	for a := range d.n {
		d.n[a] -= base.n[a]
	}
	for a, n := range v.other {
		d.Add(a, n-base.other[a])
	}
	return d
}

// asMap is the histogram as the map it replaced.
func (v Verdicts) asMap() map[ebpf.XDPAction]uint64 {
	m := make(map[ebpf.XDPAction]uint64, len(v.n)+len(v.other))
	v.Each(func(a ebpf.XDPAction, n uint64) { m[a] = n })
	return m
}

// String prints the histogram as fmt prints the map it replaced, e.g.
// "map[XDP_DROP:3 XDP_PASS:5]".
func (v Verdicts) String() string { return fmt.Sprint(v.asMap()) }

// MarshalJSON encodes the histogram as the map it replaced: an object
// keyed by the decimal action, keys in string order.
func (v Verdicts) MarshalJSON() ([]byte, error) { return json.Marshal(v.asMap()) }

// UnmarshalJSON decodes what MarshalJSON (or the map it replaces)
// encoded; null is the empty histogram.
func (v *Verdicts) UnmarshalJSON(b []byte) error {
	var m map[ebpf.XDPAction]uint64
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	*v = Verdicts{}
	for a, n := range m {
		v.Add(a, n)
	}
	return nil
}
