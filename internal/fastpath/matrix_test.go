package fastpath_test

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestFallbackMatrixMatchesEligible keeps DESIGN.md's fallback matrix a
// view of Eligible, not a copy: its feature column must be exactly the
// reasons machine.go can return.
func TestFallbackMatrixMatchesEligible(t *testing.T) {
	src, err := os.ReadFile("machine.go")
	if err != nil {
		t.Fatal(err)
	}
	var reasons []string
	for _, m := range regexp.MustCompile(`return false, "([^"]+)"`).FindAllSubmatch(src, -1) {
		reasons = append(reasons, string(m[1]))
	}
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, found := strings.Cut(string(doc), "| feature | engine | why |\n| --- | --- | --- |\n")
	if !found {
		t.Fatal("DESIGN.md has no fallback matrix")
	}
	var features []string
	for _, row := range strings.Split(table, "\n") {
		if !strings.HasPrefix(row, "|") {
			break
		}
		features = append(features, strings.TrimSpace(strings.Split(row, "|")[1]))
	}
	slices.Sort(reasons)
	slices.Sort(features)
	if len(reasons) == 0 || !slices.Equal(reasons, features) {
		t.Fatalf("DESIGN.md lists %q, Eligible returns %q", features, reasons)
	}
}
