package elf

import (
	"bytes"
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/core"
	"ehdl/internal/ebpf"
	"ehdl/internal/vm"
)

func mustProgram(t *testing.T, app *apps.App) *ebpf.Program {
	t.Helper()
	prog, err := app.Program()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func roundTrip(t *testing.T, prog *ebpf.Program, section string) *ebpf.Program {
	t.Helper()
	data, err := Marshal(prog, section)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	got, err := obj.Program(section)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestRoundTripAllApps(t *testing.T) {
	for _, app := range append(apps.All(), apps.Toy(), apps.LeakyBucket()) {
		prog := mustProgram(t, app)
		got := roundTrip(t, prog, "xdp")
		if len(got.Instructions) != len(prog.Instructions) {
			t.Fatalf("%s: %d instructions after round trip, want %d",
				app.Name, len(got.Instructions), len(prog.Instructions))
		}
		for i := range prog.Instructions {
			want := prog.Instructions[i]
			if got.Instructions[i] != want {
				t.Fatalf("%s: instruction %d: %v vs %v", app.Name, i, got.Instructions[i], want)
			}
		}
		if len(got.Maps) != len(prog.Maps) {
			t.Fatalf("%s: %d maps, want %d", app.Name, len(got.Maps), len(prog.Maps))
		}
		for i := range prog.Maps {
			if got.Maps[i] != prog.Maps[i] {
				t.Fatalf("%s: map %d: %+v vs %+v", app.Name, i, got.Maps[i], prog.Maps[i])
			}
		}
	}
}

func TestLoadedObjectCompilesAndRuns(t *testing.T) {
	// The full paper workflow: object file in, pipeline out.
	prog := roundTrip(t, mustProgram(t, apps.Toy()), "xdp")
	pl, err := core.Compile(prog, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pl.NumStages() == 0 {
		t.Fatal("empty pipeline from a loaded object")
	}
	// And it still executes.
	env, err := vm.NewEnv(prog)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	pkt := make([]byte, 64)
	pkt[12], pkt[13] = 0x08, 0x00
	res, err := m.Run(vm.NewPacket(pkt))
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != ebpf.XDPTx {
		t.Fatalf("action = %v", res.Action)
	}
}

func TestRelocationsAreBlankInTheObject(t *testing.T) {
	// The emitted text must carry zeroed LDDW immediates (the loader
	// fills them), and Load must restore the symbolic references.
	prog := mustProgram(t, apps.Toy())
	data, err := Marshal(prog, "xdp")
	if err != nil {
		t.Fatal(err)
	}
	obj, err := load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := obj.Program("")
	found := false
	for _, ins := range got.Instructions {
		if ins.IsLoadOfMapFD() {
			found = true
			if ins.MapRef != "stats" {
				t.Errorf("relocated map ref = %q", ins.MapRef)
			}
		}
	}
	if !found {
		t.Fatal("no relocated map reference in the loaded program")
	}
}

func TestProgramSelection(t *testing.T) {
	obj, err := load(bytes.NewReader(mustMarshal(t, mustProgram(t, apps.Toy()), "xdp/main")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Program("xdp/main"); err != nil {
		t.Error(err)
	}
	if _, err := obj.Program("absent"); err == nil {
		t.Error("Program(absent) succeeded")
	}
	if _, err := obj.Program(""); err != nil {
		t.Error("single-program default selection failed")
	}
}

func mustMarshal(t *testing.T, prog *ebpf.Program, section string) []byte {
	t.Helper()
	data, err := Marshal(prog, section)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := load(bytes.NewReader([]byte("not an elf file at all......."))); err == nil {
		t.Error("accepted garbage")
	}
	// A valid ELF with no executable sections.
	prog := mustProgram(t, apps.Toy())
	data := mustMarshal(t, prog, "xdp")
	// Clear the EXECINSTR flag of section 1 (flags live at shoff + 1*64 + 8).
	shoff := int(uint64(data[40]) | uint64(data[41])<<8)
	data[shoff+64+8] = 0
	if _, err := load(bytes.NewReader(data)); err == nil {
		t.Error("accepted an object without program sections")
	}
}
