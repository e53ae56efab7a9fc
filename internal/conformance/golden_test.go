package conformance

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ehdl/internal/hwsim"
	"ehdl/internal/obs"
	"ehdl/internal/pktgen"
)

var update = flag.Bool("update", false, "rewrite the golden trace files under testdata/")

// TestGoldenTraces pins the exact cycle-level event stream of two
// canonical runs — the toy example and the firewall, eight packets each
// — as JSONL golden files. A diff here means the pipeline's cycle
// behaviour changed: event ordering, stage timing, hazard handling or
// the trace encoding itself. Regenerate deliberately with
//
//	go test ./internal/conformance -run TestGoldenTraces -update
func TestGoldenTraces(t *testing.T) {
	for _, name := range []string{"toy", "firewall"} {
		name := name
		t.Run(name, func(t *testing.T) {
			app := mustApp(t, name)
			cfg := app.Traffic
			cfg.Flows = 2 // hazard-dense: same-flow packets back to back
			cfg.Seed = 0x60D
			packets := pktgen.NewGenerator(cfg).Batch(8)

			var buf bytes.Buffer
			sink := obs.NewJSONLSink(&buf)
			tr := obs.NewTracer(0, sink)
			if err := DiffAppThreeWay(app, packets, Config{sim: hwsim.Config{Trace: tr}}); err != nil {
				t.Fatal(err)
			}
			if err := tr.Flush(); err != nil {
				t.Fatal(err)
			}

			golden := filepath.Join("testdata", name+".trace.jsonl")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s (%d bytes)", golden, buf.Len())
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				line := firstDiffLine(buf.Bytes(), want)
				t.Fatalf("trace diverges from %s at line %d:\n got: %s\nwant: %s",
					golden, line, lineAt(buf.Bytes(), line), lineAt(want, line))
			}

			// The committed trace must round-trip through the parser.
			evs, err := obs.ParseJSONL(bytes.NewReader(want))
			if err != nil {
				t.Fatalf("golden trace does not parse: %v", err)
			}
			if uint64(len(evs)) != tr.Emitted() {
				t.Fatalf("golden trace has %d events, tracer emitted %d", len(evs), tr.Emitted())
			}
		})
	}
}

func firstDiffLine(a, b []byte) int {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return i + 1
		}
	}
	return n + 1
}

func lineAt(b []byte, line int) string {
	ls := bytes.Split(b, []byte("\n"))
	if line-1 < len(ls) {
		return string(ls[line-1])
	}
	return "<eof>"
}
