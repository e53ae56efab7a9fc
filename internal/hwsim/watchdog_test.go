package hwsim

import (
	"errors"
	"testing"

	"ehdl/internal/core"
	"ehdl/internal/ebpf"
)

// wedgeStall opens an artificial stall window that can never drain: the
// stall point sits above a held packet and the reload dead time is set
// beyond the test horizon. Correct hazard machinery cannot reach this
// state (stall windows always drain), so the test plants it directly to
// prove the watchdog converts a hang into a typed error.
func (s *Sim) wedgeStall(point, drainTo, delay int) {
	s.stallPoint = point
	s.stallDrainTo = drainTo
	s.reloadDelay = delay
}

func TestWatchdogTripsOnStallLivelock(t *testing.T) {
	pl := compile(t, "flow", flowSource, core.Options{})
	sim, err := New(pl, Config{Policy: PolicyStall, WatchdogCycles: 500})
	if err != nil {
		t.Fatal(err)
	}
	if !sim.Inject(ipv4Packet(1, 64)) {
		t.Fatal("inject failed")
	}
	// One cycle moves the packet from the input queue into stage 0;
	// then wedge a never-draining stall window above it.
	if err := sim.Step(); err != nil {
		t.Fatal(err)
	}
	sim.wedgeStall(1, pl.NumStages()-1, 1<<40)

	err = sim.RunToCompletion(100000)
	if err == nil {
		t.Fatal("livelocked pipeline drained; watchdog never fired")
	}
	if !errors.Is(err, errLivelock) {
		t.Fatalf("error %v, want ErrLivelock", err)
	}
	var le *livelockError
	if !errors.As(err, &le) {
		t.Fatalf("error %T does not unwrap to *LivelockError", err)
	}
	if le.Policy != PolicyStall {
		t.Errorf("diagnostic policy = %v, want PolicyStall", le.Policy)
	}
	if le.StallPoint != 1 {
		t.Errorf("diagnostic stall point = %d, want 1", le.StallPoint)
	}
	if le.InFlight != 1 {
		t.Errorf("diagnostic in-flight = %d, want 1", le.InFlight)
	}
	if le.Cycle <= le.LastRetire || le.Cycle-le.LastRetire <= 500 {
		t.Errorf("diagnostic cycles %d..%d do not span the watchdog window", le.LastRetire, le.Cycle)
	}
	if got := sim.Stats().WatchdogTrips; got != 1 {
		t.Errorf("WatchdogTrips = %d, want 1", got)
	}
}

func TestWatchdogQuietOnHealthyTraffic(t *testing.T) {
	// Hazard-heavy single-flow traffic under both policies must never
	// trip a generous watchdog: stall windows and flush reloads always
	// make forward progress.
	for _, policy := range []HazardPolicy{PolicyFlush, PolicyStall} {
		pl := compile(t, "flow", flowSource, core.Options{})
		sim, err := New(pl, Config{Policy: policy, WatchdogCycles: 10000})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			for !sim.InputFree() {
				if err := sim.Step(); err != nil {
					t.Fatalf("policy %v: %v", policy, err)
				}
			}
			sim.Inject(ipv4Packet(uint32(i%2), 64))
		}
		if err := sim.RunToCompletion(1 << 20); err != nil {
			t.Fatalf("policy %v: %v", policy, err)
		}
		st := sim.Stats()
		if st.WatchdogTrips != 0 {
			t.Errorf("policy %v: %d watchdog trips on healthy traffic", policy, st.WatchdogTrips)
		}
		if st.Completed != 200 {
			t.Errorf("policy %v: completed %d of 200", policy, st.Completed)
		}
	}
}

func TestWatchdogDisabledByDefault(t *testing.T) {
	pl := compile(t, "toy", toySource, core.Options{})
	sim, err := New(pl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sim.Inject(ethPacket(ebpf.EthPIP, 64))
	if err := sim.Step(); err != nil {
		t.Fatal(err)
	}
	sim.wedgeStall(1, pl.NumStages()-1, 1<<40)
	// With WatchdogCycles == 0 the wedge hangs instead of erroring; the
	// RunToCompletion bound is the only way out.
	if err := sim.RunToCompletion(2000); err == nil {
		t.Fatal("wedged pipeline drained unexpectedly")
	} else if errors.Is(err, errLivelock) {
		t.Fatalf("disabled watchdog still fired: %v", err)
	}
}
