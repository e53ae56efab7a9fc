package hwsim

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ehdl/internal/ebpf"
)

// verdictCases are histograms as maps: empty, the five actions, and
// R0 values past them whose decimal keys sort apart from their values.
func verdictCases() []map[ebpf.XDPAction]uint64 {
	cases := []map[ebpf.XDPAction]uint64{
		{},
		{ebpf.XDPTx: 4096},
		{ebpf.XDPAborted: 1, ebpf.XDPDrop: 2, ebpf.XDPPass: 3, ebpf.XDPTx: 4, ebpf.XDPRedirect: 5},
		{ebpf.XDPPass: 7, 10: 1, 42: 3, 5: 2, 1 << 31: 9, ^ebpf.XDPAction(0): 1},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		m := map[ebpf.XDPAction]uint64{}
		for k := rng.Intn(8); k > 0; k-- {
			a := ebpf.XDPAction(rng.Intn(6))
			if rng.Intn(4) == 0 {
				a = ebpf.XDPAction(rng.Uint32())
			}
			m[a] += uint64(1 + rng.Intn(1000))
		}
		cases = append(cases, m)
	}
	return cases
}

func verdictsOf(m map[ebpf.XDPAction]uint64) Verdicts {
	var v Verdicts
	for a, n := range m {
		v.Add(a, n)
	}
	return v
}

// TestVerdictsEncodeAsTheMap: the histogram prints, marshals (compact
// and indented, as a struct field) and round-trips exactly as the map
// it replaced, so reports.json and every journaled digest keep their
// bytes.
func TestVerdictsEncodeAsTheMap(t *testing.T) {
	type asMap struct {
		Actions map[ebpf.XDPAction]uint64
		Named   map[ebpf.XDPAction]uint64 `json:"actions"`
	}
	type asVerdicts struct {
		Actions Verdicts
		Named   Verdicts `json:"actions"`
	}
	for _, m := range verdictCases() {
		v := verdictsOf(m)
		if got, want := v.String(), fmt.Sprint(m); got != want {
			t.Errorf("String %q, fmt prints the map as %q", got, want)
		}
		want, err := json.MarshalIndent(asMap{m, m}, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.MarshalIndent(asVerdicts{v, v}, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("JSON\n%s\nthe map encodes as\n%s", got, want)
		}
		var back asVerdicts
		if err := json.Unmarshal(want, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, asVerdicts{v, v}) {
			t.Errorf("decoded %v, want %v", back.Actions, v)
		}
		for a, n := range m {
			if v.Count(a) != n {
				t.Errorf("Count(%d) = %d, want %d", a, v.Count(a), n)
			}
		}
		if v.IsZero() != (len(m) == 0) {
			t.Errorf("IsZero %v on %v", v.IsZero(), m)
		}
	}
	var null Verdicts
	null.Add(ebpf.XDPPass, 1)
	if err := json.Unmarshal([]byte("null"), &null); err != nil || !reflect.DeepEqual(null, Verdicts{}) {
		t.Errorf("null decodes to %v (%v), want the empty histogram", null, err)
	}
}

// TestVerdictsCopiesAreIndependent: counting into a copy, merging into
// it or windowing it never reaches the histogram it was copied from,
// R0 values outside the five actions included.
func TestVerdictsCopiesAreIndependent(t *testing.T) {
	orig := verdictsOf(map[ebpf.XDPAction]uint64{ebpf.XDPPass: 2, 42: 1})
	frozen := verdictsOf(map[ebpf.XDPAction]uint64{ebpf.XDPPass: 2, 42: 1})
	cp := orig
	cp.Add(42, 5)
	cp.Add(7, 1)
	cp.Merge(orig)
	if !reflect.DeepEqual(orig, frozen) {
		t.Fatalf("copy wrote through: %v, want %v", orig, frozen)
	}
	if want := verdictsOf(map[ebpf.XDPAction]uint64{ebpf.XDPPass: 4, 42: 7, 7: 1}); !reflect.DeepEqual(cp, want) {
		t.Errorf("merged copy %v, want %v", cp, want)
	}
	if d, want := cp.since(orig), verdictsOf(map[ebpf.XDPAction]uint64{ebpf.XDPPass: 2, 42: 6, 7: 1}); !reflect.DeepEqual(d, want) {
		t.Errorf("since %v, want %v", d, want)
	}
	if d := orig.since(orig); !reflect.DeepEqual(d, Verdicts{}) {
		t.Errorf("empty window %v, want the zero histogram", d)
	}
}
