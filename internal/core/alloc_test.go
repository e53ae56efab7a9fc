//go:build !race

// AllocsPerRun interacts badly with the race detector's instrumented
// allocator, so this file sits outside the -race test gate.

package core

import (
	"testing"

	"ehdl/internal/apps"
)

// TestCompileAllocations counts the compiler's work without a clock:
// each bundled app's Compile may allocate at most 10 % more than the
// count measured when every pass, provenance included, became one
// sweep (linux/amd64, go 1.24). A compiler that again iterates liveness to a fixpoint,
// re-analyses a program it has already analysed, or allocates a use
// list per data-flow step — 3.9 to 15 times these counts on these
// apps — fails here before any timing would show it. Lower a count when
// the compiler allocates less; raise one only for an intended change
// and say why.
func TestCompileAllocations(t *testing.T) {
	measured := map[string]float64{
		"firewall": 279, "router": 244, "tunnel": 258, "dnat": 263,
		"suricata": 341, "toy": 250, "leakybucket": 277, "loadbalancer": 296,
	}
	for _, app := range append(apps.All(), apps.Toy(), apps.LeakyBucket(), apps.LoadBalancer()) {
		prog, err := app.Program()
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		var compileErr error
		got := testing.AllocsPerRun(10, func() { _, compileErr = Compile(prog, Options{}) })
		if compileErr != nil {
			t.Fatalf("%s: %v", app.Name, compileErr)
		}
		want, ok := measured[app.Name]
		if !ok {
			t.Fatalf("%s: no measured allocation count", app.Name)
		}
		if got > want*1.1 {
			t.Errorf("%s: Compile allocates %.0f times, ceiling %.0f (measured %.0f + 10%%)", app.Name, got, want*1.1, want)
		}
	}
}
