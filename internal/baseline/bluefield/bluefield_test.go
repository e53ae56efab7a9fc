package bluefield

import (
	"testing"

	"ehdl/internal/asm"
	"ehdl/internal/vm"
)

func runTiny(t *testing.T, m *Model) Report {
	t.Helper()
	prog, err := asm.Assemble("tiny", "r0 = 2\nexit")
	if err != nil {
		t.Fatal(err)
	}
	env, err := vm.NewEnv(prog)
	if err != nil {
		t.Fatal(err)
	}
	packets := make([][]byte, 50)
	for i := range packets {
		packets[i] = make([]byte, 64)
	}
	rep, err := m.run(prog, env, packets)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestOverheadDominatesTinyPrograms(t *testing.T) {
	rep := runTiny(t, New(1))
	// A two-instruction program is bounded by the per-packet overhead.
	if rep.NsPerPacket < 300 || rep.NsPerPacket > 340 {
		t.Errorf("ns/packet = %.0f, want ~ the 310ns driver overhead", rep.NsPerPacket)
	}
}

func TestCoreClamping(t *testing.T) {
	if New(0).cores() != 1 || New(12).cores() != 8 {
		t.Error("core count clamping broken")
	}
	r1 := runTiny(t, New(1))
	r8 := runTiny(t, New(8))
	if r8.Mpps < 7*r1.Mpps {
		t.Errorf("8 cores = %.2f Mpps vs 1 core %.2f: sub-linear beyond tolerance", r8.Mpps, r1.Mpps)
	}
	if r8.AvgLatencyNs != r1.AvgLatencyNs {
		t.Error("adding cores must not change per-packet latency")
	}
}
