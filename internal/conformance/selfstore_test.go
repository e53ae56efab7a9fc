package conformance

import (
	"testing"

	"ehdl/internal/asm"
	"ehdl/internal/ebpf"
	"ehdl/internal/pktgen"
)

// selfStoreSources store a register through itself: the base of a
// statically addressed store is also the value it writes. The address is
// static, so the base is no operand of the hardware access, but the
// value still is: a compiler that drops the base from the store's uses
// leaves the value unwired, the slot reads back zero and the program
// drops what the reference passes. The atomic twin zeroes its slot
// first, as the kernel verifier requires of a read-modify-write.
var selfStoreSources = map[string]string{
	"stx-self": `
r2 = r10
r2 += -8
*(u64 *)(r2 + 0) = r2
r3 = *(u64 *)(r10 - 8)
r0 = 2
if r3 != 0 goto out
r0 = 1
out:
exit
`,
	"xadd-self": `
*(u64 *)(r10 - 8) = 0
r2 = r10
r2 += -8
lock *(u64 *)(r2 + 0) += r2
r3 = *(u64 *)(r10 - 8)
r0 = 2
if r3 != 0 goto out
r0 = 1
out:
exit
`,
}

// TestDifferentialSelfStore holds the pipeline to the reference VM on a
// register stored through itself.
func TestDifferentialSelfStore(t *testing.T) {
	packets := pktgen.NewGenerator(pktgen.GeneratorConfig{Flows: 4, PacketLen: 64, Proto: ebpf.IPProtoUDP, Seed: 1}).Batch(8)
	for name, src := range selfStoreSources {
		prog, err := asm.Assemble(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := diffProgram(prog, nil, packets, Config{}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
