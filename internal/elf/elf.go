// Package elf loads eBPF programs from the ELF object files emitted by
// clang -target bpf, the same artifacts the Linux loader consumes. The
// paper's workflow starts from exactly these objects ("eHDL could
// readily generate the hardware design from the cloned Suricata GIT
// repository"): program sections hold raw bytecode, the maps section
// declares bpf_map_def structures, and relocations bind LDDW
// instructions to their map symbols.
//
// Supported layout (the classic libbpf format):
//
//   - program sections: any executable section (e.g. "xdp", "prog",
//     "xdp/router");
//   - "maps" section: an array of struct bpf_map_def { u32 type,
//     key_size, value_size, max_entries, map_flags; } entries, one per
//     map symbol;
//   - REL relocations against program sections, resolving map symbols
//     into the imm field of LDDW instructions.
package elf

import (
	"debug/elf"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"

	"ehdl/internal/ebpf"
)

// bpfMapDefSize is sizeof(struct bpf_map_def) in the classic layout.
const bpfMapDefSize = 20

// Linux BPF map type numbers (UAPI) for the kinds this toolchain
// supports.
const (
	bpfMapTypeHash    = 1
	bpfMapTypeArray   = 2
	bpfMapTypeLRUHash = 9
	bpfMapTypeLPMTrie = 11
	bpfMapTypeDevMap  = 14
)

func mapKind(t uint32) (ebpf.MapKind, error) {
	switch t {
	case bpfMapTypeHash:
		return ebpf.MapHash, nil
	case bpfMapTypeArray:
		return ebpf.MapArray, nil
	case bpfMapTypeLRUHash:
		return ebpf.MapLRUHash, nil
	case bpfMapTypeLPMTrie:
		return ebpf.MapLPMTrie, nil
	case bpfMapTypeDevMap:
		return ebpf.MapDevMap, nil
	}
	return 0, fmt.Errorf("elf: unsupported BPF map type %d", t)
}

func mapTypeOf(kind ebpf.MapKind) uint32 {
	switch kind {
	case ebpf.MapHash:
		return bpfMapTypeHash
	case ebpf.MapArray:
		return bpfMapTypeArray
	case ebpf.MapLRUHash:
		return bpfMapTypeLRUHash
	case ebpf.MapLPMTrie:
		return bpfMapTypeLPMTrie
	case ebpf.MapDevMap:
		return bpfMapTypeDevMap
	}
	return 0
}

// Object is a parsed eBPF ELF object: one or more programs sharing a
// map set.
type Object struct {
	// Programs by section name, each already carrying the shared maps.
	Programs map[string]*ebpf.Program
	// Maps in symbol order.
	Maps []ebpf.MapSpec
}

// LoadFile parses an object file from disk.
func LoadFile(path string) (*Object, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return load(f)
}

// load parses an object from a reader.
func load(r io.ReaderAt) (*Object, error) {
	f, err := elf.NewFile(r)
	if err != nil {
		return nil, fmt.Errorf("elf: %w", err)
	}
	defer f.Close()

	if f.Class != elf.ELFCLASS64 || f.Data != elf.ELFDATA2LSB {
		return nil, fmt.Errorf("elf: eBPF objects are little-endian ELF64")
	}
	if f.Machine != elf.EM_BPF && f.Machine != elf.EM_NONE {
		return nil, fmt.Errorf("elf: unexpected machine %v", f.Machine)
	}

	symbols, err := f.Symbols()
	if err != nil {
		return nil, fmt.Errorf("elf: symbol table: %w", err)
	}

	obj := &Object{Programs: map[string]*ebpf.Program{}}

	// Maps section: one bpf_map_def per map symbol, named by the symbol.
	mapsSection, mapsIndex := findSection(f, "maps")
	mapByOffset := map[uint64]string{}
	if mapsSection != nil {
		data, err := mapsSection.Data()
		if err != nil {
			return nil, fmt.Errorf("elf: maps section: %w", err)
		}
		var mapSyms []elf.Symbol
		for _, sym := range symbols {
			if int(sym.Section) == mapsIndex && elf.ST_TYPE(sym.Info) != elf.STT_SECTION {
				mapSyms = append(mapSyms, sym)
			}
		}
		sort.Slice(mapSyms, func(i, j int) bool { return mapSyms[i].Value < mapSyms[j].Value })
		for _, sym := range mapSyms {
			off := sym.Value
			if off+bpfMapDefSize > uint64(len(data)) {
				return nil, fmt.Errorf("elf: map %q definition out of section bounds", sym.Name)
			}
			def := data[off:]
			kind, err := mapKind(binary.LittleEndian.Uint32(def[0:4]))
			if err != nil {
				return nil, fmt.Errorf("elf: map %q: %w", sym.Name, err)
			}
			spec := ebpf.MapSpec{
				Name:       sym.Name,
				Kind:       kind,
				KeySize:    int(binary.LittleEndian.Uint32(def[4:8])),
				ValueSize:  int(binary.LittleEndian.Uint32(def[8:12])),
				MaxEntries: int(binary.LittleEndian.Uint32(def[12:16])),
			}
			if err := spec.Validate(); err != nil {
				return nil, fmt.Errorf("elf: %w", err)
			}
			mapByOffset[off] = sym.Name
			obj.Maps = append(obj.Maps, spec)
		}
	}

	// Program sections: executable PROGBITS that are not reserved names.
	for si, sec := range f.Sections {
		if sec.Type != elf.SHT_PROGBITS || sec.Flags&elf.SHF_EXECINSTR == 0 || sec.Size == 0 {
			continue
		}
		data, err := sec.Data()
		if err != nil {
			return nil, fmt.Errorf("elf: section %q: %w", sec.Name, err)
		}
		insns, err := ebpf.UnmarshalInstructions(data)
		if err != nil {
			return nil, fmt.Errorf("elf: section %q: %w", sec.Name, err)
		}
		prog := &ebpf.Program{Name: sec.Name, Instructions: insns, Maps: obj.Maps}
		if err := applyRelocations(f, si, prog, symbols, mapByOffset); err != nil {
			return nil, fmt.Errorf("elf: section %q: %w", sec.Name, err)
		}
		if err := prog.Validate(); err != nil {
			return nil, fmt.Errorf("elf: section %q: %w", sec.Name, err)
		}
		obj.Programs[sec.Name] = prog
	}
	if len(obj.Programs) == 0 {
		return nil, fmt.Errorf("elf: no executable program sections")
	}
	return obj, nil
}

// Program returns the object's single program, or the named one.
func (o *Object) Program(name string) (*ebpf.Program, error) {
	if name != "" {
		p, ok := o.Programs[name]
		if !ok {
			return nil, fmt.Errorf("elf: no program section %q", name)
		}
		return p, nil
	}
	if len(o.Programs) == 1 {
		for _, p := range o.Programs {
			return p, nil
		}
	}
	var names []string
	for n := range o.Programs {
		names = append(names, n)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("elf: object has %d programs %v; pick one", len(names), names)
}

func findSection(f *elf.File, name string) (*elf.Section, int) {
	for i, s := range f.Sections {
		if s.Name == name {
			return s, i
		}
	}
	return nil, -1
}

// applyRelocations binds LDDW instructions to their map symbols via the
// section's REL table.
func applyRelocations(f *elf.File, progSection int, prog *ebpf.Program,
	symbols []elf.Symbol, mapByOffset map[uint64]string) error {

	var rel *elf.Section
	for _, s := range f.Sections {
		if (s.Type == elf.SHT_REL || s.Type == elf.SHT_RELA) && int(s.Info) == progSection {
			rel = s
			break
		}
	}
	if rel == nil {
		return nil
	}
	data, err := rel.Data()
	if err != nil {
		return err
	}
	entrySize := 16
	if rel.Type == elf.SHT_RELA {
		entrySize = 24
	}
	bySlot := prog.IndexBySlot()
	for off := 0; off+entrySize <= len(data); off += entrySize {
		rOff := binary.LittleEndian.Uint64(data[off : off+8])
		rInfo := binary.LittleEndian.Uint64(data[off+8 : off+16])
		symIdx := int(rInfo >> 32)
		if symIdx == 0 || symIdx > len(symbols) {
			return fmt.Errorf("relocation references symbol %d of %d", symIdx, len(symbols))
		}
		sym := symbols[symIdx-1] // debug/elf drops the null symbol

		if rOff%ebpf.WordSize != 0 {
			return fmt.Errorf("misaligned relocation offset %d", rOff)
		}
		idx, ok := bySlot[int(rOff/ebpf.WordSize)]
		if !ok {
			return fmt.Errorf("relocation at slot %d does not start an instruction", rOff/ebpf.WordSize)
		}
		ins := &prog.Instructions[idx]
		if !ins.IsLoadImm64() {
			return fmt.Errorf("relocation targets %q, not a lddw", ins)
		}
		mapName := sym.Name
		if byOff, ok := mapByOffset[sym.Value]; ok && byOff != "" {
			mapName = byOff
		}
		if _, found := prog.MapSpecByName(mapName); !found {
			return fmt.Errorf("relocation against unknown map symbol %q", sym.Name)
		}
		ins.Src = ebpf.PseudoMapFD
		ins.MapRef = mapName
		ins.Imm = 0
		ins.Imm64 = 0
	}
	return nil
}
