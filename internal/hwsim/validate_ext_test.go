package hwsim_test

import (
	"testing"

	"ehdl/internal/conformance"
	"ehdl/internal/hwsim"
)

// TestValidateStalePointerZoo validates the stale-pointer zoo, whose
// program conformance owns: value pointers outlive their lookups, are
// copied, offset at run time and added through.
func TestValidateStalePointerZoo(t *testing.T) {
	prog, err := conformance.StalePointerZoo().Program()
	if err != nil {
		t.Fatal(err)
	}
	if err := hwsim.ValidateAll(prog); err != nil {
		t.Fatal(err)
	}
}
