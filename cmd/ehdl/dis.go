package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"ehdl/internal/ebpf"
	elfobj "ehdl/internal/elf"
)

// disCmd shows a program's bytecode, and converts between the
// assembler text and the eBPF wire format.
//
//	ehdl dis -app tunnel                    # a bundled application
//	ehdl dis -obj prog.o -section xdp       # a program of an ELF object
//	ehdl dis prog.bin                       # raw bytecode
//	ehdl dis -src prog.asm -o prog.bin      # assemble; -elf writes an object
type disCmd struct {
	prog loader
	out  string
	elf  bool
}

func (c *disCmd) declare(fs *flag.FlagSet) {
	c.prog.declare(fs, "", true)
	fs.StringVar(&c.out, "o", "", "write the program here as raw bytecode instead of disassembling it")
	fs.BoolVar(&c.elf, "elf", false, "with -o: write a clang-compatible ELF object (section xdp) instead of raw bytecode")
}

func (c *disCmd) run(args []string, stdout, stderr io.Writer) int {
	switch {
	case len(args) > 1:
		return usage(stderr, fmt.Errorf("unexpected arguments %q", args[1:]))
	case c.elf && c.out == "":
		return usage(stderr, fmt.Errorf("-elf selects the format of -o; give an output file"))
	case len(args) == 1 && (c.prog != loader{} || c.out != ""):
		return usage(stderr, fmt.Errorf("a raw bytecode file is only disassembled; it takes no -app, -src, -obj, -section or -o"))
	case len(args) == 1:
		return disassembleRaw(args[0], stdout, stderr)
	}

	prog, err := c.prog.load()
	if err != nil {
		return fail(stderr, err)
	}
	if c.out == "" {
		for _, m := range prog.Maps {
			fmt.Fprintf(stdout, "map %s %v key=%d value=%d entries=%d\n",
				m.Name, m.Kind, m.KeySize, m.ValueSize, m.MaxEntries)
		}
		fmt.Fprint(stdout, ebpf.Disassemble(prog.Instructions))
		return 0
	}
	data := ebpf.MarshalInstructions(prog.Instructions)
	if c.elf {
		if data, err = elfobj.Marshal(prog, "xdp"); err != nil {
			return fail(stderr, err)
		}
	}
	if err := os.WriteFile(c.out, data, 0o644); err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "wrote %s (%d instructions, %d bytes)\n", c.out, len(prog.Instructions), len(data))
	return 0
}

// disassembleRaw prints a raw bytecode file; an ELF object goes
// through -obj, which knows its maps and sections.
func disassembleRaw(path string, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(path)
	if err != nil {
		return fail(stderr, err)
	}
	if bytes.HasPrefix(data, []byte("\x7fELF")) {
		return usage(stderr, fmt.Errorf("%s is an ELF object; load it with -obj", path))
	}
	insns, err := ebpf.UnmarshalInstructions(data)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprint(stdout, ebpf.Disassemble(insns))
	return 0
}
