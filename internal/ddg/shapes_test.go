package ddg_test

import (
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/asm"
	"ehdl/internal/cfg"
	"ehdl/internal/conformance"
	"ehdl/internal/core"
	"ehdl/internal/ddg"
	"ehdl/internal/ebpf"
	"ehdl/internal/pktgen"
)

// pointerShapes are the ways a program can build the left operand r4 of
// a comparison that looks like a packet bounds check. Each pins the
// provenance class of r4 at the comparison, whether ddg labels the
// comparison packet-vs-end (and which side holds the packet pointer),
// and how many checks the compiler then elides. r2 holds data_end and
// r3 data throughout.
var pointerShapes = []struct {
	name     string
	shape    string // computes r4
	cmp      string // the comparison, jumping to the constant-drop exit
	class    string
	labelled bool
	pktLeft  bool
	elided   int
}{
	// The packet length is a scalar: comparing data + 14 against it is
	// no bounds check, and data + 14 always exceeds it.
	{"end - data", "r4 = r2\nr4 -= r3", "r5 = r3\nr5 += 14\nif r5 > r4 goto drop", "scalar", false, false, 0},
	{"data + data", "r4 = r3\nr4 += r3", "if r4 > r2 goto drop", "unknown", false, false, 0},
	{"scalar + data", "r4 = 14\nr4 += r3", "if r4 > r2 goto drop", "packet+?", true, true, 1},
	{"data + 14, end on the left", "r4 = r3\nr4 += 14", "if r2 < r4 goto drop", "packet+14", true, false, 1},
	{"data & mask", "r4 = r3\nr4 &= -4\nr4 += 14", "if r4 > r2 goto drop", "scalar", false, false, 0},
	{"32-bit move", "w4 = w3\nr4 += 14", "if r4 > r2 goto drop", "unknown", false, false, 0},
	{"data + var", "r5 = *(u8 *)(r3 + 0)\nr5 &= 7\nr4 = r3\nr4 += r5\nr4 += 20", "if r4 > r2 goto drop", "packet+?", true, true, 1},
}

// TestPointerShapes checks each shape's lattice class, compare label and
// elision decision, then runs it three-way: the reference VM, the
// interpreter and the fast path must agree on 64-byte frames whether or
// not the check was elided.
func TestPointerShapes(t *testing.T) {
	packets := pktgen.NewGenerator(pktgen.GeneratorConfig{Flows: 4, PacketLen: 64, Proto: ebpf.IPProtoUDP, Seed: 1}).Batch(8)
	for _, c := range pointerShapes {
		t.Run(c.name, func(t *testing.T) {
			src := "r2 = *(u32 *)(r1 + 4)\nr3 = *(u32 *)(r1 + 0)\n" + c.shape + "\n" + c.cmp +
				"\nr0 = 2\nexit\ndrop:\nr0 = 1\nexit\n"
			prog, err := asm.Assemble("shape", src)
			if err != nil {
				t.Fatal(err)
			}
			g, err := cfg.Build(prog)
			if err != nil {
				t.Fatal(err)
			}
			info, err := ddg.Analyze(g)
			if err != nil {
				t.Fatal(err)
			}
			at := -1 // the comparison: the one register-register conditional jump
			for i, ins := range prog.Instructions {
				if ins.IsConditional() && ins.Source() == ebpf.SourceX {
					at = i
				}
			}
			if class := ddg.ClassBefore(info, at, ebpf.R4); class != c.class {
				t.Errorf("r4 is %s, want %s", class, c.class)
			}
			for i := range prog.Instructions {
				pktLeft, ok := info.PacketVsEnd(i)
				if want := i == at && c.labelled; ok != want || ok && pktLeft != c.pktLeft {
					t.Errorf("instruction %d (%s): PacketVsEnd = (%v, %v), want (%v, %v)",
						i, prog.Instructions[i], pktLeft, ok, c.pktLeft && want, want)
				}
			}
			pl, err := core.Compile(prog, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if pl.ElidedBoundsChecks != c.elided {
				t.Errorf("elided %d checks, want %d", pl.ElidedBoundsChecks, c.elided)
			}
			if err := conformance.DiffAppThreeWay(&apps.App{Name: "shape", Source: src}, packets, conformance.Config{}); err != nil {
				t.Error(err)
			}
		})
	}
}
