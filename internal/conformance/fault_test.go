package conformance

import (
	"testing"

	"ehdl/internal/asm"
	"ehdl/internal/core"
	"ehdl/internal/ebpf"
	"ehdl/internal/hwsim"
	"ehdl/internal/vm"
)

// faultSources fault the hardware bounds check inside a block whose
// software check the compiler elided: on a frame shorter than 40 bytes
// the reference drops at the check, and the pipeline must drop at the
// access with the same bytes. The stage that faults finishes — its ops
// run in parallel in hardware — and nothing after it runs.
var faultSources = map[string]string{
	// The load at 36 faults in the middle of the block: the packet store
	// after it in its stage rewrites byte 1 unchanged and the stack store
	// records that the stage finished; the next row would make byte 2
	// twice byte 1.
	"mid-block": `
r2 = *(u32 *)(r1 + 4)
r1 = *(u32 *)(r1 + 0)
r3 = r1
r3 += 40
if r3 > r2 goto drop
r6 = *(u8 *)(r1 + 1)
r4 = r6
r7 = r4
r4 = *(u32 *)(r1 + 36)
*(u8 *)(r1 + 1) = r7
*(u8 *)(r10 - 1) = r7
r4 += r7
*(u8 *)(r1 + 2) = r4
r0 = 2
exit
drop:
r0 = 1
exit
`,
	// The store at 39 faults in the exit's stage: the exit must not
	// latch R0 over the bounds check's drop.
	"exit-stage": `
r2 = *(u32 *)(r1 + 4)
r1 = *(u32 *)(r1 + 0)
r3 = r1
r3 += 40
if r3 > r2 goto drop
r5 = *(u8 *)(r1 + 0)
r5 += 1
r5 += 1
r0 = 2
*(u8 *)(r1 + 39) = r5
exit
drop:
r0 = 1
exit
`,
}

// faultFrames are short frames (each fault stage's access past the data
// end) and full ones, patterned so that a stray write shows.
func faultFrames() [][]byte {
	var frames [][]byte
	for _, n := range []int{0, 1, 2, 20, 36, 39, 40, 41, 64} {
		f := make([]byte, n)
		for i := range f {
			f[i] = byte(3*i + 5)
		}
		frames = append(frames, f)
	}
	return frames
}

// TestDifferentialFaultStage holds all three engines to the reference VM
// on short and full frames through both programs, and checks on a
// one-burst run of "mid-block" that the faulting stage finished and the
// next row did not run.
func TestDifferentialFaultStage(t *testing.T) {
	for name, src := range faultSources {
		prog, err := asm.Assemble(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := diffProgram(prog, nil, faultFrames(), Config{}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}

	prog, err := asm.Assemble("mid-block", faultSources["mid-block"])
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.Compile(prog, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The premise: one block, the load at 36 in a middle stage with the
	// stores after it, and the add in the block's next stage.
	at := map[string]int{}
	for s := range pl.Stages {
		for _, op := range pl.Stages[s].Ops {
			at[op.Ins.String()] = s
		}
	}
	load := at["r4 = *(u32 *)(r1 + 36)"]
	if load == 0 || at["*(u8 *)(r1 + 1) = r7"] != load || at["*(u8 *)(r10 - 1) = r7"] != load ||
		at["r4 += r7"] != load+1 || len(pl.Blocks) != 1 {
		t.Fatalf("mid-block no longer faults mid-block: stages %v, %d blocks", at, len(pl.Blocks))
	}
	env, err := vm.NewEnv(pl.Transformed)
	if err != nil {
		t.Fatal(err)
	}
	burst, err := hwsim.NewBurst(pl, hwsim.Config{}, env)
	if err != nil {
		t.Fatal(err)
	}
	frame := faultFrames()[3]
	run, err := burst.Run(frame)
	if err != nil {
		t.Fatal(err)
	}
	if run.Action != ebpf.XDPDrop || run.Faults != 1 {
		t.Fatalf("%dB frame: %v with %d faults, want one fault and a drop", len(frame), run.Action, run.Faults)
	}
	if run.State.Stack[ebpf.StackSize-1] != frame[1] || run.State.Regs[ebpf.R4] != uint64(frame[1]) {
		t.Fatalf("%dB frame: stack byte %d, r4 %d: want %d for both (stage finished, next row not run)",
			len(frame), run.State.Stack[ebpf.StackSize-1], run.State.Regs[ebpf.R4], frame[1])
	}
}
