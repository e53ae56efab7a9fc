package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenStdout pins each subcommand's stdout on a small
// configuration, byte for byte, in testdata/<name>.golden. To
// re-record after an intended change of the output, delete the file
// and run the test: it writes the file and fails once.
func TestGoldenStdout(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"compile", []string{"compile", "-app", "toy", "-report"}},
		{"dis", []string{"dis", "-app", "toy"}},
		{"sim", []string{"sim", "-app", "leakybucket", "-packets", "2000", "-metrics"}},
		{"fleet", []string{"fleet", "-devices", "2", "-epochs", "6", "-update-prog", "toy"}},
		{"tables", []string{"tables", "-exp", "fig8"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCmd(t, tc.args...)
			if code != 0 {
				t.Fatalf("%v: exit %d: %s", tc.args, code, stderr)
			}
			path := filepath.Join("testdata", tc.name+".golden")
			want, err := os.ReadFile(path)
			if os.IsNotExist(err) {
				if err := os.WriteFile(path, []byte(stdout), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Fatalf("recorded %s; rerun", path)
			}
			if err != nil {
				t.Fatal(err)
			}
			if stdout != string(want) {
				t.Errorf("%v: stdout differs from %s:\n%s", tc.args, path, stdout)
			}
		})
	}
}

// TestTablesGoldenIsExperimentsBlock: `tables -exp fig8` prints its
// block of the experiments golden, the one that `tables` with no flags
// prints whole.
func TestTablesGoldenIsExperimentsBlock(t *testing.T) {
	block, err := os.ReadFile(filepath.Join("testdata", "tables.golden"))
	if err != nil {
		t.Fatal(err)
	}
	all, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", "tables.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if len(block) == 0 || !bytes.Contains(all, block) {
		t.Errorf("testdata/tables.golden is not a block of the experiments golden:\n%s", block)
	}
}
