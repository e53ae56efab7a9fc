//go:build !race

package nic

import (
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/core"
	"ehdl/internal/pktgen"
)

// TestRunLoadAllocs pins the shell's own allocations: a RunLoad costs a
// fixed handful of objects (the report's verdict map, the runtime/trace
// task) however many frames it serves, on either engine. The ceilings
// are the counts measured before the serving loops were merged.
func TestRunLoadAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  ShellConfig
		max  float64
	}{
		{"compiled", ShellConfig{FastPath: true}, 6},
		{"interpreter", ShellConfig{}, 14},
	} {
		app := apps.Firewall()
		sh := newShell(t, app, core.Options{}, tc.cfg)
		frames := pktgen.NewGenerator(app.Traffic).Batch(4096)
		i := 0
		next := func() []byte {
			f := frames[i%len(frames)]
			i++
			return f
		}
		run := func() {
			if _, err := sh.RunLoad(next, len(frames), 148.8e6); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm: job pool, flow table
		if got := testing.AllocsPerRun(10, run); got > tc.max {
			t.Errorf("%s: %v allocs per 4096-frame RunLoad, want <= %v", tc.name, got, tc.max)
		} else {
			t.Logf("%s: %v allocs per RunLoad", tc.name, got)
		}
	}
}
