// Package asm assembles eBPF programs from the textual form used by the
// Linux verifier and throughout the eHDL paper, e.g.
//
//	; toy packet counter
//	map stats array key=4 value=8 entries=4
//
//	r2 = *(u8 *)(r1 + 12)
//	r1 = *(u8 *)(r1 + 13)
//	r1 <<= 8
//	r1 |= r2
//	if r1 == 34525 goto ipv6
//	...
//	ipv6:
//	r1 = 2
//	exit
//
// Jump targets may be numeric slot deltas ("goto +4") or labels. Map
// references are written "r1 = map[stats] ll" and resolved against the
// map declarations.
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"ehdl/internal/ebpf"
)

// syntaxError describes an assembly failure with its source line.
type syntaxError struct {
	Line int
	Text string
	Msg  string
}

func (e *syntaxError) Error() string {
	return fmt.Sprintf("asm: line %d: %s: %q", e.Line, e.Msg, e.Text)
}

// Assemble parses source into a validated Program named name.
func Assemble(name, source string) (*ebpf.Program, error) {
	p := &parser{prog: &ebpf.Program{Name: name}}
	if err := p.run(source); err != nil {
		return nil, err
	}
	if err := p.prog.Validate(); err != nil {
		return nil, err
	}
	return p.prog, nil
}

type pendingRef struct {
	insIndex int
	label    string
	line     int
	text     string
}

type parser struct {
	prog    *ebpf.Program
	labels  map[string]int // label -> slot offset
	pending []pendingRef
	slot    int
}

func (p *parser) run(source string) error {
	p.labels = make(map[string]int)
	for lineNo, raw := range strings.Split(source, "\n") {
		line := stripComment(raw)
		if line == "" {
			continue
		}
		if err := p.line(lineNo+1, line); err != nil {
			return err
		}
	}
	return p.resolve()
}

func stripComment(line string) string {
	for _, marker := range []string{";", "//", "#"} {
		if i := strings.Index(line, marker); i >= 0 {
			line = line[:i]
		}
	}
	return strings.TrimSpace(line)
}

func (p *parser) errf(line int, text, format string, args ...any) error {
	return &syntaxError{Line: line, Text: text, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) emit(ins ebpf.Instruction) {
	p.prog.Instructions = append(p.prog.Instructions, ins)
	p.slot += ins.Slots()
}

func (p *parser) line(lineNo int, line string) error {
	// Label definition.
	if strings.HasSuffix(line, ":") && !strings.ContainsAny(line, " \t=*") {
		label := strings.TrimSuffix(line, ":")
		if !isIdent(label) {
			return p.errf(lineNo, line, "invalid label %q", label)
		}
		if _, dup := p.labels[label]; dup {
			return p.errf(lineNo, line, "duplicate label %q", label)
		}
		p.labels[label] = p.slot
		return nil
	}
	// Map declaration.
	if strings.HasPrefix(line, "map ") {
		spec, err := parseMapDecl(line)
		if err != nil {
			return p.errf(lineNo, line, "%v", err)
		}
		p.prog.Maps = append(p.prog.Maps, spec)
		return nil
	}
	ins, label, err := parseInstruction(line)
	if err != nil {
		return p.errf(lineNo, line, "%v", err)
	}
	if label != "" {
		p.pending = append(p.pending, pendingRef{
			insIndex: len(p.prog.Instructions), label: label, line: lineNo, text: line,
		})
	}
	p.emit(ins)
	return nil
}

func (p *parser) resolve() error {
	offs := p.prog.SlotOffsets()
	for _, ref := range p.pending {
		target, ok := p.labels[ref.label]
		if !ok {
			return p.errf(ref.line, ref.text, "undefined label %q", ref.label)
		}
		ins := &p.prog.Instructions[ref.insIndex]
		delta := target - (offs[ref.insIndex] + ins.Slots())
		if delta < -(1<<15) || delta >= 1<<15 {
			return p.errf(ref.line, ref.text, "jump to %q out of 16-bit range", ref.label)
		}
		ins.Off = int16(delta)
	}
	return nil
}

// parseMapDecl parses "map <name> <kind> key=<n> value=<n> entries=<n>".
func parseMapDecl(line string) (ebpf.MapSpec, error) {
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return ebpf.MapSpec{}, fmt.Errorf("map declaration needs a name and a kind")
	}
	spec := ebpf.MapSpec{Name: fields[1]}
	switch fields[2] {
	case "array":
		spec.Kind = ebpf.MapArray
	case "hash":
		spec.Kind = ebpf.MapHash
	case "lru_hash":
		spec.Kind = ebpf.MapLRUHash
	case "lpm_trie":
		spec.Kind = ebpf.MapLPMTrie
	case "devmap":
		spec.Kind = ebpf.MapDevMap
	default:
		return ebpf.MapSpec{}, fmt.Errorf("unknown map kind %q", fields[2])
	}
	for _, kv := range fields[3:] {
		key, val, found := strings.Cut(kv, "=")
		if !found {
			return ebpf.MapSpec{}, fmt.Errorf("malformed map attribute %q", kv)
		}
		n, err := strconv.Atoi(val)
		if err != nil {
			return ebpf.MapSpec{}, fmt.Errorf("malformed map attribute %q: %v", kv, err)
		}
		switch key {
		case "key":
			spec.KeySize = n
		case "value":
			spec.ValueSize = n
		case "entries":
			spec.MaxEntries = n
		default:
			return ebpf.MapSpec{}, fmt.Errorf("unknown map attribute %q", key)
		}
	}
	return spec, nil
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '.':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
