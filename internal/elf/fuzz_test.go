package elf

import (
	"bytes"
	"testing"

	"ehdl/internal/apps"
)

// FuzzLoad throws mutated object files at the loader: it must never
// panic or accept something that fails program validation.
func FuzzLoad(f *testing.F) {
	for _, app := range []string{"toy", "firewall"} {
		a, _ := apps.ByName(app)
		prog, err := a.Program()
		if err != nil {
			f.Fatal(err)
		}
		if data, err := Marshal(prog, "xdp"); err == nil {
			f.Add(data)
		}
	}
	f.Add([]byte("\x7fELF"))
	f.Fuzz(func(t *testing.T, data []byte) {
		obj, err := load(bytes.NewReader(data))
		if err != nil {
			return
		}
		for name, prog := range obj.Programs {
			if err := prog.Validate(); err != nil {
				t.Fatalf("loaded program %q fails validation: %v", name, err)
			}
		}
	})
}
