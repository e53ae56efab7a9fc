package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/ebpf"
	elfobj "ehdl/internal/elf"
)

// runCmd runs the command line args through the entry point and
// returns its exit status and both output streams.
func runCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func toyProgram(t *testing.T) *ebpf.Program {
	t.Helper()
	prog, err := apps.Toy().Program()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestLoadProgramSources(t *testing.T) {
	dir := t.TempDir()

	// Assembly source.
	asmPath := filepath.Join(dir, "p.asm")
	if err := os.WriteFile(asmPath, []byte("r0 = 2\nexit\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	prog, err := (&loader{src: asmPath}).load()
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Instructions) != 2 {
		t.Errorf("asm program has %d instructions", len(prog.Instructions))
	}

	// ELF object, with and without naming its section.
	objData, err := elfobj.Marshal(toyProgram(t), "xdp")
	if err != nil {
		t.Fatal(err)
	}
	objPath := filepath.Join(dir, "p.o")
	if err := os.WriteFile(objPath, objData, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, section := range []string{"", "xdp"} {
		prog, err = (&loader{obj: objPath, section: section}).load()
		if err != nil {
			t.Fatal(err)
		}
		if len(prog.Maps) != 1 {
			t.Errorf("object program (section %q) has %d maps", section, len(prog.Maps))
		}
	}

	// Bundled application.
	if _, err := (&loader{app: "router"}).load(); err != nil {
		t.Error(err)
	}

	// Errors.
	for _, tc := range []struct {
		name string
		l    loader
	}{
		{"both -app and -src", loader{app: "router", src: asmPath}},
		{"no input", loader{}},
		{"an unknown app", loader{app: "nope"}},
		{"a section the object lacks", loader{obj: objPath, section: "nosuch"}},
		{"-section without -obj", loader{app: "toy", section: "xdp"}},
	} {
		if _, err := tc.l.load(); err == nil {
			t.Errorf("accepted %s", tc.name)
		}
	}
	// The same rule holds in every subcommand that takes an object.
	for _, sub := range []string{"compile", "dis"} {
		code, _, stderr := runCmd(t, sub, "-obj", objPath, "-section", "nosuch")
		if code != 1 || !strings.Contains(stderr, `no program section "nosuch"`) {
			t.Errorf("%s -section nosuch: exit %d, stderr %q", sub, code, stderr)
		}
	}
}

func TestBuildStimuli(t *testing.T) {
	stimuli, err := buildStimuli(toyProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(stimuli) != 8 {
		t.Fatalf("stimuli = %d", len(stimuli))
	}
	for i, st := range stimuli {
		if len(st.Packet) == 0 {
			t.Errorf("stimulus %d has no packet", i)
		}
		if st.Verdict != 3 { // the toy transmits everything in bounds
			t.Errorf("stimulus %d verdict = %d", i, st.Verdict)
		}
	}
}

// TestDisRoundTrip assembles a program to raw bytecode and to an ELF
// object, and disassembles both back to the source's instructions.
func TestDisRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "p.asm")
	if err := os.WriteFile(src, []byte("r0 = 2\nexit\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	want := ebpf.Disassemble([]ebpf.Instruction{ebpf.Mov64Imm(ebpf.R0, 2), ebpf.Exit()})

	bin, obj := filepath.Join(dir, "p.bin"), filepath.Join(dir, "p.o")
	for _, args := range [][]string{
		{"dis", "-src", src, "-o", bin},
		{"dis", "-src", src, "-o", obj, "-elf"},
	} {
		if code, _, stderr := runCmd(t, args...); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr)
		}
	}
	for _, args := range [][]string{{"dis", bin}, {"dis", "-obj", obj}} {
		code, stdout, stderr := runCmd(t, args...)
		if code != 0 || stdout != want {
			t.Errorf("%v: exit %d, stdout %q, want %q (stderr %q)", args, code, stdout, want, stderr)
		}
	}
	// A raw file is disassembled only; an object goes through -obj.
	for _, args := range [][]string{{"dis", obj}, {"dis", "-app", "toy", bin}, {"dis", "-app", "toy", "-elf"}} {
		if code, _, _ := runCmd(t, args...); code != 1 {
			t.Errorf("%v: exit %d, want usage error (1)", args, code)
		}
	}
}

// TestTraceFormatFromName: the trace file's name picks its format.
func TestTraceFormatFromName(t *testing.T) {
	dir := t.TempDir()
	for name, jsonl := range map[string]bool{"t.jsonl": true, "t.txt": false} {
		path := filepath.Join(dir, name)
		if code, _, stderr := runCmd(t, "sim", "-app", "toy", "-packets", "10", "-trace", path); code != 0 {
			t.Fatalf("%s: exit %d: %s", name, code, stderr)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 || (data[0] == '{') != jsonl {
			t.Errorf("%s starts %.40q, want JSONL %v", name, data, jsonl)
		}
	}
}

// TestExitStatus holds one case for every exit status a subcommand
// documents. pre runs first and must exit 0.
func TestExitStatus(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal")
	overBudget := "suricata:0.5,suricata:0.5,tunnel:0.5,router:0.5"
	cases := []struct {
		name string
		pre  []string
		args []string
		want int
	}{
		{"no subcommand", nil, nil, 1},
		{"unknown subcommand", nil, []string{"bench"}, 1},
		{"help", nil, []string{"sim", "-h"}, 0},
		{"unknown flag", nil, []string{"sim", "-tenants", "toy:0.5"}, 1},

		{"compile clean", nil, []string{"compile", "-app", "toy"}, 0},
		{"compile no input", nil, []string{"compile"}, 1},
		{"dis clean", nil, []string{"dis", "-app", "toy"}, 0},
		{"dis missing file", nil, []string{"dis", filepath.Join(journal, "none.bin")}, 1},
		{"tables clean", nil, []string{"tables", "-exp", "power"}, 0},
		{"tables unknown experiment", nil, []string{"tables", "-exp", "fig99"}, 1},

		{"sim clean", nil, []string{"sim", "-app", "toy", "-packets", "200"}, 0},
		{"sim usage", nil, []string{"sim", "-packets", "0"}, 1},
		// Parity detects but cannot correct: with one recovery allowed
		// the store outruns drain-and-restart, and the pipeline
		// declares itself unrecoverable.
		{"sim recovery exhausted", nil, []string{"sim", "-app", "dnat", "-packets", "2000",
			"-faults", "1", "-protect", "parity", "-max-recoveries", "1", "-seed", "2"}, 2},

		{"fleet clean", nil, []string{"fleet", "-devices", "2", "-epochs", "2", "-epoch-packets", "64"}, 0},
		{"fleet usage", nil, []string{"fleet", "-devices", "0"}, 1},
		{"fleet admission rejected", nil, []string{"fleet", "-devices", "1", "-epochs", "1",
			"-tenants", overBudget, "-band", "10"}, 2},
		{"fleet journal reused", []string{"fleet", "-devices", "1", "-epochs", "2", "-journal", journal},
			[]string{"fleet", "-devices", "1", "-epochs", "2", "-journal", journal}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.pre != nil {
				if code, _, stderr := runCmd(t, tc.pre...); code != 0 {
					t.Fatalf("setup %v: exit %d: %s", tc.pre, code, stderr)
				}
			}
			if code, _, stderr := runCmd(t, tc.args...); code != tc.want {
				t.Errorf("%v: exit %d, want %d; stderr:\n%s", tc.args, code, tc.want, stderr)
			}
		})
	}
}

// TestDocumentedCommands parses every `go run ./cmd/ehdl …` line of
// the documents and the Makefile under its subcommand's flag set: a
// flag, a subcommand or a binary the command no longer has fails.
// Nothing runs.
func TestDocumentedCommands(t *testing.T) {
	line := regexp.MustCompile(`run \./cmd/ehdl(\S*)[ \t]*([^` + "`" + `|>;#\n]*)`)
	seen := map[string]bool{}
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", "Makefile"} {
		data, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range line.FindAllStringSubmatch(string(data), -1) {
			args := strings.Fields(m[2])
			if m[1] != "" || len(args) == 0 {
				t.Errorf("%s: %q is not `go run ./cmd/ehdl <subcommand>`", doc, m[0])
				continue
			}
			seen[args[0]] = true
			if _, _, err := parse(args[0], args[1:], io.Discard); err != nil && err != flag.ErrHelp {
				t.Errorf("%s: %q: %v", doc, m[0], err)
			}
		}
	}
	for _, name := range commandNames() {
		if !seen[name] {
			t.Errorf("no document runs `go run ./cmd/ehdl %s`", name)
		}
	}
}

// TestFileOutputs: the flags that name output files write them.
func TestFileOutputs(t *testing.T) {
	dir := t.TempDir()
	vhd, tb := filepath.Join(dir, "toy.vhd"), filepath.Join(dir, "toy_tb.vhd")
	code, stdout, stderr := runCmd(t, "compile", "-app", "toy", "-o", vhd, "-tb", tb, "-disasm")
	if code != 0 {
		t.Fatalf("compile: exit %d: %s", code, stderr)
	}
	for _, want := range []string{"wrote " + vhd, "8 stimuli", "transformed bytecode:"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("compile stdout lacks %q:\n%s", want, stdout)
		}
	}

	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	if code, _, stderr := runCmd(t, "sim", "-app", "toy", "-packets", "100", "-cpuprofile", cpu, "-memprofile", mem); code != 0 {
		t.Fatalf("profiled sim: exit %d: %s", code, stderr)
	}
	for _, path := range []string{vhd, tb, cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: not written (%v)", path, err)
		}
	}
}

// TestFleetResumeReprintsReport: a journaled chaos run resumed from its
// journal prints the same report, byte for byte.
func TestFleetResumeReprintsReport(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "j")
	args := []string{"fleet", "-devices", "3", "-epochs", "6", "-epoch-packets", "64",
		"-chaos", "0.4", "-seed", "9", "-json", "-journal", journal}
	code, first, stderr := runCmd(t, args...)
	if code != 0 {
		t.Fatalf("journaled run: exit %d: %s", code, stderr)
	}
	code, resumed, stderr := runCmd(t, append(args, "-resume")...)
	if code != 0 {
		t.Fatalf("resume: exit %d: %s", code, stderr)
	}
	if !strings.Contains(stderr, "recovered: 6 epochs replayed") {
		t.Errorf("resume did not report its replay: %s", stderr)
	}
	if resumed != first {
		t.Errorf("resumed report differs:\n%s\nwant:\n%s", resumed, first)
	}
}
