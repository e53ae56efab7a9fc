package hxdp

import (
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/asm"
	"ehdl/internal/ebpf"
)

func TestPackRespectsDependencies(t *testing.T) {
	// r1 += r0 depends on r0 = 1: two bundles, not one.
	prog, err := asm.Assemble("dep", "r0 = 1\nr1 += r0\nexit")
	if err != nil {
		t.Fatal(err)
	}
	b, err := New().StaticBundles(prog)
	if err != nil {
		t.Fatal(err)
	}
	if b != 3 { // two dependent ALU ops + exit
		t.Errorf("bundles = %d, want 3", b)
	}
	// Independent ops pack together.
	prog, _ = asm.Assemble("indep", "r0 = 1\nr1 = 2\nexit")
	b, _ = New().StaticBundles(prog)
	if b != 2 {
		t.Errorf("independent bundles = %d, want 2", b)
	}
}

func TestBranchesIssueAlone(t *testing.T) {
	prog, err := asm.Assemble("br", "r0 = 1\nif r0 == 1 goto +0\nr1 = 2\nexit")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := New().StaticBundles(prog)
	if b != 4 {
		t.Errorf("bundles = %d, want 4 (branches issue alone and end windows)", b)
	}
}

func TestStoresShareNoMemoryPort(t *testing.T) {
	prog, err := asm.Assemble("mem", `
r7 = *(u32 *)(r1 + 0)
*(u8 *)(r7 + 0) = r7
*(u8 *)(r7 + 1) = r7
exit`)
	if err != nil {
		t.Fatal(err)
	}
	two, _ := New().StaticBundles(prog)
	wide := &Model{lanes: 4}
	four, _ := wide.StaticBundles(prog)
	if four != two {
		t.Errorf("extra lanes changed memory-port-limited packing: %d vs %d", four, two)
	}
}

func TestHXDPLanesMatter(t *testing.T) {
	prog, err := apps.Tunnel().Program()
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := (&Model{lanes: 1}).StaticBundles(prog)
	b2, _ := New().StaticBundles(prog)
	if b2 >= b1 {
		t.Errorf("2-lane bundles (%d) should undercut 1-lane (%d)", b2, b1)
	}
}

func TestHelperLatencies(t *testing.T) {
	if helperCycles(ebpf.HelperMapUpdateElem) <= helperCycles(ebpf.HelperKtimeGetNs) {
		t.Error("map updates must cost more than a counter sample")
	}
}

func TestResourcesIncludeShell(t *testing.T) {
	r := New().Resources()
	if r.LUTs < 40000 {
		t.Errorf("hXDP + shell = %d LUTs; the shell alone is 42k", r.LUTs)
	}
}
