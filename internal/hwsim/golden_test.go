package hwsim

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/faults"
	"ehdl/internal/pktgen"
)

const goldenRetirePath = "testdata/retirements.golden"

// goldenRetirements drives leakybucket under Zipf traffic through one
// of the four paths on which stages hold, empty or refill out of
// lock-step with the clock, and returns one line per retired packet, in
// retirement order: seq, verdict, latency in cycles, times flushed.
func goldenRetirements(t *testing.T, cfg Config, recoverAt int) string {
	t.Helper()
	// 256 flows under Zipf keep the hot keys colliding inside the
	// read-to-write window, so the hazard path fires every few frames.
	const frames, cyclesPerFrame = 600, 2
	sim, ring := newLoadedSim(t, apps.LeakyBucket(), cfg, 256, pktgen.Zipf, frames)
	var out strings.Builder
	sim.OnComplete(func(r Result) {
		fmt.Fprintf(&out, "%d %d %d %d\n", r.Seq, r.Action, r.LatencyCycles, r.Flushed)
	})
	for i := 0; i < frames || sim.Busy(); i++ {
		if i < frames {
			sim.Inject(ring[i])
		}
		if i == recoverAt {
			if err := sim.recoverNow("golden"); err != nil {
				t.Fatal(err)
			}
		}
		for c := 0; c < cyclesPerFrame; c++ {
			if err := sim.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := sim.Stats()
	fmt.Fprintf(&out, "cycles %d flushes %d flushed %d stalls %d aborted %d\n",
		st.Cycles, st.Flushes, st.FlushedPackets, st.StallCycles, st.RecoveryAborted)
	return out.String()
}

// TestGoldenRetirements holds the stage register to the per-packet
// retirements recorded with the physical shift register (commit
// 729ff9b): hazard flushes, the stall policy's bubbles, a forced flush
// storm, and a drain-and-restart recovery mid-stream. A missing golden
// file is recorded and the test fails, so a fresh recording is always a
// reviewed diff.
func TestGoldenRetirements(t *testing.T) {
	rows := []struct {
		name      string
		cfg       func() Config
		recoverAt int
	}{
		{"flush", func() Config { return Config{} }, -1},
		{"stall", func() Config { return Config{Policy: PolicyStall} }, -1},
		{"storm", func() Config {
			return Config{Faults: faults.New(faults.Single(faults.FlushStorm, 0.05, 3))}
		}, -1},
		{"recover", func() Config { return Config{} }, 300},
	}
	var got strings.Builder
	for _, row := range rows {
		fmt.Fprintf(&got, "# %s\n%s", row.name, goldenRetirements(t, row.cfg(), row.recoverAt))
	}
	raw, err := os.ReadFile(goldenRetirePath)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenRetirePath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing: recorded, review and re-run", goldenRetirePath)
	}
	if err != nil {
		t.Fatal(err)
	}
	want, have := strings.Split(string(raw), "\n"), strings.Split(got.String(), "\n")
	section := ""
	for i := 0; i < len(want) && i < len(have); i++ {
		if strings.HasPrefix(want[i], "#") {
			section = want[i]
		}
		if want[i] != have[i] {
			t.Fatalf("line %d (%s): got %q, recorded %q", i+1, section, have[i], want[i])
		}
	}
	if len(have) != len(want) {
		t.Fatalf("%d lines, recorded %d", len(have), len(want))
	}
}
