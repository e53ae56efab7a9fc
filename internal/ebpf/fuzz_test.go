package ebpf_test

import (
	"testing"

	"ehdl/internal/ebpf"
)

// FuzzUnmarshal decodes arbitrary byte streams: truncated or malformed
// input must error, everything accepted must re-encode to the same
// bytes, and on every decoded instruction BranchTarget and DefMask must
// agree with their reference definitions.
func FuzzUnmarshal(f *testing.F) {
	f.Add(ebpf.MarshalInstructions([]ebpf.Instruction{ebpf.Mov64Imm(ebpf.R0, 2), ebpf.Exit()}))
	f.Add(ebpf.MarshalInstructions([]ebpf.Instruction{ebpf.LoadImm64(ebpf.R1, 1<<40), ebpf.Exit()}))
	f.Add(make([]byte, 8))
	f.Fuzz(func(t *testing.T, data []byte) {
		insns, err := ebpf.UnmarshalInstructions(data)
		if err != nil {
			return
		}
		out := ebpf.MarshalInstructions(insns)
		if string(out) != string(data) {
			t.Fatalf("re-encode mismatch: %x vs %x", out, data)
		}
		if err := checkFrontEnd(&ebpf.Program{Instructions: insns}); err != nil {
			t.Fatal(err)
		}
	})
}
