package hdl

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/core"
	"ehdl/internal/pktgen"
)

const goldenVHDLPath = "testdata/vhdl.sha256"

type vhdlCase struct {
	label, app string
	opts       core.Options
}

// goldenVHDLCases are the compilations whose emitted text is pinned:
// every app at default options, then the non-default compilations the
// experiments price (the Section 5.4 ablations on toy and leakybucket,
// the frame-width sweep on tunnel).
func goldenVHDLCases() []vhdlCase {
	type c = vhdlCase
	var cases []c
	for _, name := range []string{"firewall", "router", "tunnel", "dnat", "suricata", "toy", "leakybucket", "loadbalancer"} {
		cases = append(cases, c{name, name, core.Options{}})
	}
	for _, name := range []string{"toy", "leakybucket"} {
		cases = append(cases,
			c{name + "/DisablePruning", name, core.Options{DisablePruning: true}},
			c{name + "/DisableILP", name, core.Options{DisableILP: true}},
			c{name + "/DisableFusion", name, core.Options{DisableFusion: true}},
			c{name + "/DisableAtomics", name, core.Options{DisableAtomics: true}})
	}
	return append(cases,
		c{"tunnel/FrameBytes32", "tunnel", core.Options{FrameBytes: 32}},
		c{"tunnel/FrameBytes128", "tunnel", core.Options{FrameBytes: 128}})
}

// TestGoldenVHDL pins the emitted HDL text: the SHA-256 of Generate and
// of GenerateTestbench (four frames of the app's own traffic, verdicts
// 0-3) for every case of goldenVHDLCases. Substring tests cannot see a
// refactor of the emitter change a line; this does. Delete the file and
// run the test to re-record (it fails once by design) — only for an
// intended change of the emitted text.
func TestGoldenVHDL(t *testing.T) {
	var got strings.Builder
	for _, c := range goldenVHDLCases() {
		app, _ := apps.ByName(c.app)
		pl := compileApp(t, c.app, c.opts)
		traffic := app.Traffic
		traffic.Seed = 1
		var stimuli []Stimulus
		for i, frame := range pktgen.NewGenerator(traffic).Batch(4) {
			stimuli = append(stimuli, Stimulus{Packet: frame, Verdict: uint8(i)})
		}
		fmt.Fprintf(&got, "%s generate %x\n", c.label, sha256.Sum256([]byte(Generate(pl))))
		fmt.Fprintf(&got, "%s testbench %x\n", c.label, sha256.Sum256([]byte(GenerateTestbench(pl, stimuli))))
	}
	raw, err := os.ReadFile(goldenVHDLPath)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenVHDLPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing: recorded, review and re-run", goldenVHDLPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	want, have := strings.Split(string(raw), "\n"), strings.Split(got.String(), "\n")
	for i := 0; i < len(want) && i < len(have); i++ {
		if want[i] != have[i] {
			t.Errorf("got %q, recorded %q", have[i], want[i])
		}
	}
	if len(have) != len(want) {
		t.Fatalf("%d lines, recorded %d", len(have), len(want))
	}
}
