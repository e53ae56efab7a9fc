package ebpf_test

import (
	"fmt"
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/ebpf"
)

// refBranchTarget is the slot-table definition BranchTarget replaces:
// map the target slot back through SlotOffsets and IndexBySlot.
func refBranchTarget(p *ebpf.Program, i int) (int, bool) {
	ins := p.Instructions[i]
	if !ins.IsBranch() {
		return 0, false
	}
	idx, ok := p.IndexBySlot()[p.SlotOffsets()[i]+ins.Slots()+int(ins.Off)]
	return idx, ok
}

// refWrites is the per-register definition DefMask replaces: whether
// ins defines reg, one register at a time.
func refWrites(ins ebpf.Instruction, reg ebpf.Register) bool {
	switch cls := ins.Class(); {
	case cls.IsALU(), cls == ebpf.ClassLDX:
		return ins.Dst == reg
	case cls == ebpf.ClassLD:
		return ins.IsLoadImm64() && ins.Dst == reg
	case ins.IsAtomic():
		switch op := ins.AtomicOp(); {
		case op == ebpf.AtomicCmpXchg:
			return reg == ebpf.R0
		case op&ebpf.AtomicFetch != 0 || op == ebpf.AtomicXchg:
			return ins.Src == reg
		}
		return false
	case ins.IsCall():
		return reg <= ebpf.R5
	}
	return false
}

// checkFrontEnd holds BranchTarget to the slot-table definition and
// DefMask to the per-register definition on every instruction of p.
func checkFrontEnd(p *ebpf.Program) error {
	for i, ins := range p.Instructions {
		gotIdx, gotOK := p.BranchTarget(i)
		wantIdx, wantOK := refBranchTarget(p, i)
		if gotIdx != wantIdx || gotOK != wantOK {
			return fmt.Errorf("instruction %d (%s): BranchTarget = %d, %v; slot table says %d, %v",
				i, ins, gotIdx, gotOK, wantIdx, wantOK)
		}
		var want uint16
		for r := ebpf.R0; r <= ebpf.R10; r++ {
			if refWrites(ins, r) {
				want |= 1 << r
			}
		}
		if got := ins.DefMask(); got != want {
			return fmt.Errorf("instruction %d (%s): DefMask = %#x, want %#x", i, ins, got, want)
		}
	}
	return nil
}

func TestBranchTargetWalk(t *testing.T) {
	prog := func(ins ...ebpf.Instruction) *ebpf.Program { return &ebpf.Program{Instructions: ins} }
	cases := []struct {
		name   string
		p      *ebpf.Program
		branch int
		want   int
		ok     bool
	}{
		{"backward across lddw", prog(ebpf.Mov64Imm(ebpf.R0, 0), ebpf.LoadImm64(ebpf.R1, 1), ebpf.Ja(-4), ebpf.Exit()), 2, 0, true},
		{"forward across lddw", prog(ebpf.Ja(2), ebpf.LoadImm64(ebpf.R1, 1), ebpf.Exit()), 0, 2, true},
		{"into lddw second slot", prog(ebpf.Mov64Imm(ebpf.R0, 0), ebpf.LoadImm64(ebpf.R1, 1), ebpf.Ja(-2), ebpf.Exit()), 2, 0, false},
		{"forward into lddw second slot", prog(ebpf.Ja(1), ebpf.LoadImm64(ebpf.R1, 1), ebpf.Exit()), 0, 0, false},
		{"one past the end", prog(ebpf.Ja(1), ebpf.Exit()), 0, 0, false},
		{"before the start", prog(ebpf.Mov64Imm(ebpf.R0, 0), ebpf.Ja(-3), ebpf.Exit()), 1, 0, false},
		{"ja -1", prog(ebpf.Mov64Imm(ebpf.R0, 0), ebpf.Ja(-1), ebpf.Exit()), 1, 1, true},
		{"ja 0", prog(ebpf.Ja(0), ebpf.Exit()), 0, 1, true},
		{"not a branch", prog(ebpf.Mov64Imm(ebpf.R0, 0), ebpf.Exit()), 0, 0, false},
		{"exit", prog(ebpf.Exit()), 0, 0, false},
	}
	for _, c := range cases {
		got, ok := c.p.BranchTarget(c.branch)
		if got != c.want || ok != c.ok {
			t.Errorf("%s: BranchTarget(%d) = %d, %v; want %d, %v", c.name, c.branch, got, ok, c.want, c.ok)
		}
		if err := checkFrontEnd(c.p); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// TestDefMaskCoversAtomics covers the def sets the bundled programs do
// not reach: every atomic selector, both widths.
func TestDefMaskCoversAtomics(t *testing.T) {
	var ins []ebpf.Instruction
	for _, op := range []ebpf.AtomicOp{ebpf.AtomicAdd, ebpf.AtomicOr, ebpf.AtomicAnd, ebpf.AtomicXor, ebpf.AtomicXchg, ebpf.AtomicCmpXchg} {
		for _, size := range []ebpf.Size{ebpf.SizeW, ebpf.SizeDW} {
			ins = append(ins, ebpf.Atomic(size, ebpf.R1, 0, ebpf.R2, op), ebpf.Atomic(size, ebpf.R1, 0, ebpf.R2, op|ebpf.AtomicFetch))
		}
	}
	if err := checkFrontEnd(&ebpf.Program{Instructions: append(ins, ebpf.Exit())}); err != nil {
		t.Error(err)
	}
}

func TestFrontEndMatchesSlotTableOnApps(t *testing.T) {
	for _, app := range append(apps.All(), apps.Toy(), apps.LeakyBucket(), apps.LoadBalancer()) {
		prog, err := app.Program()
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		if err := checkFrontEnd(prog); err != nil {
			t.Errorf("%s: %v", app.Name, err)
		}
	}
}
