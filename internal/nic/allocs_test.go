//go:build !race

package nic

import (
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/core"
	"ehdl/internal/pktgen"
)

// TestRunLoadAllocs pins the shell's own allocations: once the job pool
// and the flow table are warm, a single-queue RunLoad allocates nothing
// however many frames it serves, on either engine. The report's verdict
// histogram is a value (hwsim.Verdicts) and the engines' counters are
// windowed into the shell's scratch.
func TestRunLoadAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  ShellConfig
		max  float64
	}{
		{"compiled", ShellConfig{FastPath: true}, 0},
		{"interpreter", ShellConfig{}, 0},
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

// TestMultiQueueRunLoadAllocs: on the multi-queue path nothing is
// allocated per packet. A compiled 4-queue RunLoad costs a fixed number
// of objects per session (dispatcher, sinks, workers, the report) plus
// one per dispatched batch — the []Item the dispatcher hands its worker
// — however many frames retire.
func TestMultiQueueRunLoadAllocs(t *testing.T) {
	const queues, batch, perSession = 4, 64, 80
	app := apps.Toy()
	sh := newShell(t, app, core.Options{}, ShellConfig{Queues: queues, Batch: batch, FastPath: true})
	if !sh.FastPath() {
		t.Fatal("compiled replicas not serving")
	}
	frames := pktgen.NewGenerator(app.Traffic).Batch(4096)
	i := 0
	next := func() []byte {
		f := frames[i%len(frames)]
		i++
		return f
	}
	measure := func(count int) float64 {
		run := func() {
			if rep, err := sh.RunLoad(next, count, 148.8e6); err != nil || rep.Received != uint64(count) {
				t.Fatalf("received %d of %d, err %v", rep.Received, count, err)
			}
		}
		run() // warm: flow tables, skeleton rings
		return testing.AllocsPerRun(5, run)
	}
	small, large := 4096, 16*4096
	a, b := measure(small), measure(large)
	t.Logf("%v allocs at %d frames, %v at %d", a, small, b, large)
	// Every queue may end the session on a partial batch.
	if max := float64(perSession + small/batch + queues); a > max {
		t.Errorf("%v allocs per %d-frame RunLoad, want <= %v", a, small, max)
	}
	if max := float64((large-small)/batch + queues); b-a > max {
		t.Errorf("%d more frames cost %v more allocs, want <= %v: one per batch", large-small, b-a, max)
	}
}
