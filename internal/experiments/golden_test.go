package experiments

import (
	"os"
	"strings"
	"testing"
)

const goldenTablesPath = "testdata/tables.golden"

// TestGoldenTables holds every simulated figure the repo reports —
// Mpps, latency, LUT/FF/BRAM, flushes, losses, scale-out, update and
// tenancy ledgers — to the bytes recorded at commit 7226f13: what
// `ehdl tables` prints with no flags, every table of IDs() at Config{}
// with a blank line after each. The tables are functions of the
// compiler, the cost model and the simulator only, so a difference is
// a code change, never the host. A missing golden file is recorded and
// the test fails, so a fresh recording is always a reviewed diff.
func TestGoldenTables(t *testing.T) {
	ids, all := IDs(), All()
	got := make([]string, len(ids))
	for i, id := range ids {
		tab, err := all[id](Config{})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		got[i] = tab.String() + "\n"
	}
	raw, err := os.ReadFile(goldenTablesPath)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTablesPath, []byte(strings.Join(got, "")), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing: recorded, review and re-run", goldenTablesPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	want := strings.SplitAfter(string(raw), "\n\n")
	want = want[:len(want)-1] // every table ends with the separator: the last piece is empty
	if len(want) != len(ids) {
		t.Fatalf("%s holds %d tables, IDs() lists %d", goldenTablesPath, len(want), len(ids))
	}
	for i, id := range ids {
		if got[i] == want[i] {
			continue
		}
		have, rec := strings.Split(got[i], "\n"), strings.Split(want[i], "\n")
		n := 0
		for n < len(have) && n < len(rec) && have[n] == rec[n] {
			n++
		}
		if n == len(have) || n == len(rec) {
			t.Errorf("%s: %d lines, recorded %d", id, len(have), len(rec))
			continue
		}
		t.Errorf("%s line %d:\n     got %q\nrecorded %q", id, n+1, have[n], rec[n])
	}
}

// TestExperimentsDocQuotesGolden: every fenced block of EXPERIMENTS.md
// that opens with a table banner ("== id: title ==") is that table as
// the golden file records it, trailing blanks aside — the doc quotes
// the pinned output, it does not restate it.
func TestExperimentsDocQuotesGolden(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(goldenTablesPath)
	if err != nil {
		t.Fatal(err)
	}
	trim := func(block string) string {
		lines := strings.Split(strings.TrimSpace(block), "\n")
		for i := range lines {
			lines[i] = strings.TrimRight(lines[i], " ")
		}
		return strings.Join(lines, "\n")
	}
	golden := map[string]string{}
	for _, block := range strings.Split(string(raw), "\n\n") {
		if id, _, ok := strings.Cut(strings.TrimPrefix(block, "== "), ":"); ok && strings.HasPrefix(block, "== ") {
			golden[id] = trim(block)
		}
	}
	quoted := 0
	for i, block := range strings.Split(string(doc), "```\n") {
		if i%2 == 0 || !strings.HasPrefix(block, "== ") { // even pieces are prose
			continue
		}
		quoted++
		id, _, _ := strings.Cut(strings.TrimPrefix(block, "== "), ":")
		want, ok := golden[id]
		if !ok {
			t.Errorf("EXPERIMENTS.md quotes table %q, which the golden file does not hold", id)
		} else if got := trim(block); got != want {
			t.Errorf("EXPERIMENTS.md quotes %s as\n%s\nthe golden file records\n%s", id, got, want)
		}
	}
	if quoted == 0 {
		t.Error("EXPERIMENTS.md quotes no table: the check is vacuous")
	}
}
