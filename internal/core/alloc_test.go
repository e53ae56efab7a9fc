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
// count measured when the front end became linear (linux/amd64, go
// 1.24). A front end that again rebuilds a slot table per branch and a
// def set per data-flow visit — 58-68 % more allocations on these apps —
// fails here before any timing would show it. Lower a count when the compiler allocates
// less; raise one only for an intended change and say why.
func TestCompileAllocations(t *testing.T) {
	measured := map[string]float64{
		"firewall": 2027, "router": 2258, "tunnel": 4195, "dnat": 2096,
		"suricata": 2645, "toy": 1042, "leakybucket": 1683, "loadbalancer": 5001,
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
