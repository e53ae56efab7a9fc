package conformance

import (
	"testing"

	"ehdl/internal/asm"
	"ehdl/internal/ebpf"
	"ehdl/internal/pktgen"
)

// boundsSources compare a packet pointer against something that only
// looks like data_end. Bounds-check elision may remove a branch only
// when one operand is the packet data pointer and the other data_end
// itself: here the branch decides the verdict, so eliding it makes the
// pipeline pass what the reference drops.
var boundsSources = map[string]string{
	// end - data is the packet length, a scalar: data + 14 always
	// exceeds it, and the reference drops every frame.
	"len-vs-pointer": `
r2 = *(u32 *)(r1 + 4)
r3 = *(u32 *)(r1 + 0)
r4 = r2
r4 -= r3
r5 = r3
r5 += 14
r0 = 2
if r5 > r4 goto drop
exit
drop:
r0 = 1
exit
`,
}

// TestDifferentialBoundsLookalikes holds all three engines to the
// reference VM on comparisons that are not bounds checks.
func TestDifferentialBoundsLookalikes(t *testing.T) {
	packets := pktgen.NewGenerator(pktgen.GeneratorConfig{Flows: 4, PacketLen: 64, Proto: ebpf.IPProtoUDP, Seed: 1}).Batch(8)
	for name, src := range boundsSources {
		prog, err := asm.Assemble(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := diffProgram(prog, nil, packets, Config{}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
