package conformance

import (
	"testing"

	"ehdl/internal/asm"
	"ehdl/internal/ebpf"
	"ehdl/internal/pktgen"
)

// cmpxchgSources exercise both halves of lock cmpxchg's register
// contract, which no bundled app reaches: R0 is the compare value (read)
// and receives the old memory value (written); the source register is
// only read.
var cmpxchgSources = map[string]string{
	// R0 is set, consumed only by cmpxchg, then overwritten: a compiler
	// that misses the read drops "r0 = 5" as dead, and the exchange then
	// compares against a stale R0 and stores 9.
	"reads-r0": `
*(u64 *)(r10 - 8) = 0
r0 = 5
r2 = 9
lock cmpxchg *(u64 *)(r10 - 8) r2
r0 = *(u64 *)(r10 - 8)
if r0 == 0 goto pass
r0 = 1
exit
pass:
r0 = 2
exit
`,
	// The old value returns in R0 and the source keeps its value: a
	// compiler that thinks cmpxchg writes the source instead carries
	// the wrong register past it.
	"writes-r0": `
*(u64 *)(r10 - 8) = 7
r0 = 7
r2 = 3
lock cmpxchg *(u64 *)(r10 - 8) r2
r3 = r0
r4 = *(u64 *)(r10 - 8)
r0 = 1
if r3 != 7 goto out
if r4 != 3 goto out
if r2 != 3 goto out
r0 = 2
out:
exit
`,
	// R0 is the base and the compare value: the address is static, so
	// the base is wired, but the compare still reads R0. A compiler that
	// drops R0 with the base leaves "r0 = r10; r0 += -8" unscheduled and
	// the exchange compares the zero slot against a zero R0.
	"r0-base": `
*(u64 *)(r10 - 8) = 0
r0 = r10
r0 += -8
r2 = 9
lock cmpxchg *(u64 *)(r0 + 0) r2
r3 = *(u64 *)(r10 - 8)
r0 = 2
if r3 != 9 goto out
r0 = 1
out:
exit
`,
}

// TestDifferentialCmpXchgRegisters holds the pipeline to the reference
// VM on cmpxchg's R0 traffic.
func TestDifferentialCmpXchgRegisters(t *testing.T) {
	packets := pktgen.NewGenerator(pktgen.GeneratorConfig{Flows: 4, PacketLen: 64, Proto: ebpf.IPProtoUDP, Seed: 1}).Batch(8)
	for name, src := range cmpxchgSources {
		prog, err := asm.Assemble(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := diffProgram(prog, nil, packets, Config{}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
