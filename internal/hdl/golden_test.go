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

// TestGoldenVHDL pins the emitted HDL text: the SHA-256 of Generate and
// of GenerateTestbench (four frames of the app's own traffic, verdicts
// 0-3) for every app, default options. Substring tests cannot see a
// refactor of the emitter change a line; this does. Delete the file and
// run the test to re-record (it fails once by design) — only for an
// intended change of the emitted text.
func TestGoldenVHDL(t *testing.T) {
	var got strings.Builder
	for _, name := range []string{"firewall", "router", "tunnel", "dnat", "suricata", "toy", "leakybucket", "loadbalancer"} {
		app, _ := apps.ByName(name)
		pl := compileApp(t, name, core.Options{})
		traffic := app.Traffic
		traffic.Seed = 1
		var stimuli []Stimulus
		for i, frame := range pktgen.NewGenerator(traffic).Batch(4) {
			stimuli = append(stimuli, Stimulus{Packet: frame, Verdict: uint8(i)})
		}
		fmt.Fprintf(&got, "%s generate %x\n", name, sha256.Sum256([]byte(Generate(pl))))
		fmt.Fprintf(&got, "%s testbench %x\n", name, sha256.Sum256([]byte(GenerateTestbench(pl, stimuli))))
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
