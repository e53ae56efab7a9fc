package elf

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"ehdl/internal/ebpf"
)

// Marshal emits a program as a clang-compatible ELF object: the inverse
// of LoadFile, used by `ehdl dis -elf` to produce loader-ready
// artifacts and by the test suite to round-trip real object layouts.
func Marshal(prog *ebpf.Program, sectionName string) ([]byte, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if sectionName == "" {
		sectionName = "xdp"
	}

	le := binary.LittleEndian

	// --- section payloads ------------------------------------------------

	// Program text with map references blanked: clang emits the LDDW
	// with a zero immediate; the loader's relocation pass fills it in.
	emit := make([]ebpf.Instruction, len(prog.Instructions))
	copy(emit, prog.Instructions)
	for i := range emit {
		if emit[i].IsLoadOfMapFD() {
			emit[i].Src = 0
			emit[i].Imm = 0
			emit[i].Imm64 = 0
			emit[i].MapRef = ""
		}
	}
	text := ebpf.MarshalInstructions(emit)

	// maps section: bpf_map_def per map.
	var mapsData bytes.Buffer
	mapOffsets := map[string]uint64{}
	for _, spec := range prog.Maps {
		mapOffsets[spec.Name] = uint64(mapsData.Len())
		var def [bpfMapDefSize]byte
		le.PutUint32(def[0:4], mapTypeOf(spec.Kind))
		le.PutUint32(def[4:8], uint32(spec.KeySize))
		le.PutUint32(def[8:12], uint32(spec.ValueSize))
		le.PutUint32(def[12:16], uint32(spec.MaxEntries))
		mapsData.Write(def[:])
	}

	// String table: \0 + map names.
	var strtab bytes.Buffer
	strtab.WriteByte(0)
	strOff := func(s string) uint32 {
		off := uint32(strtab.Len())
		strtab.WriteString(s)
		strtab.WriteByte(0)
		return off
	}

	// Symbol table: null symbol + one global object symbol per map.
	const symSize = 24
	var symtab bytes.Buffer
	symtab.Write(make([]byte, symSize)) // null symbol
	symIndex := map[string]uint64{}
	const (
		mapsSectionIdx = 2
		progSectionIdx = 1
	)
	for _, spec := range prog.Maps {
		symIndex[spec.Name] = uint64(symtab.Len() / symSize)
		var sym [symSize]byte
		le.PutUint32(sym[0:4], strOff(spec.Name))
		sym[4] = byte(1<<4 | 1) // GLOBAL, OBJECT
		le.PutUint16(sym[6:8], mapsSectionIdx)
		le.PutUint64(sym[8:16], mapOffsets[spec.Name])
		le.PutUint64(sym[16:24], bpfMapDefSize)
		symtab.Write(sym[:])
	}

	// Relocations: every map-reference LDDW.
	var relData bytes.Buffer
	offs := prog.SlotOffsets()
	for i, ins := range prog.Instructions {
		if !ins.IsLoadOfMapFD() {
			continue
		}
		idx, ok := symIndex[ins.MapRef]
		if !ok {
			return nil, fmt.Errorf("elf: instruction %d references undeclared map %q", i, ins.MapRef)
		}
		var rel [16]byte
		le.PutUint64(rel[0:8], uint64(offs[i])*ebpf.WordSize)
		le.PutUint64(rel[8:16], idx<<32|1) // R_BPF_64_64
		relData.Write(rel[:])
	}

	// Section header string table.
	var shstr bytes.Buffer
	shstr.WriteByte(0)
	shName := func(s string) uint32 {
		off := uint32(shstr.Len())
		shstr.WriteString(s)
		shstr.WriteByte(0)
		return off
	}

	// --- assemble the file ------------------------------------------------

	type section struct {
		nameOff   uint32
		typ       uint32
		flags     uint64
		data      []byte
		link      uint32
		info      uint32
		addralign uint64
		entsize   uint64
	}
	sections := []section{
		{}, // SHT_NULL
		{nameOff: shName(sectionName), typ: 1 /*PROGBITS*/, flags: 0x6 /*ALLOC|EXECINSTR*/, data: text, addralign: 8},
		{nameOff: shName("maps"), typ: 1, flags: 0x3 /*WRITE|ALLOC*/, data: mapsData.Bytes(), addralign: 4},
		{nameOff: shName(".symtab"), typ: 2 /*SYMTAB*/, data: symtab.Bytes(), link: 4, info: 1, addralign: 8, entsize: symSize},
		{nameOff: shName(".strtab"), typ: 3 /*STRTAB*/, data: strtab.Bytes(), addralign: 1},
	}
	if relData.Len() > 0 {
		sections = append(sections, section{
			nameOff: shName(".rel" + sectionName), typ: 9, /*REL*/
			data: relData.Bytes(), link: 3, info: progSectionIdx, addralign: 8, entsize: 16,
		})
	}
	shstrndx := len(sections)
	sections = append(sections, section{nameOff: shName(".shstrtab"), typ: 3, data: shstr.Bytes(), addralign: 1})

	const (
		ehSize = 64
		shSize = 64
	)
	// Lay out section data after the header.
	offset := uint64(ehSize)
	dataOffsets := make([]uint64, len(sections))
	for i := range sections {
		if i == 0 || len(sections[i].data) == 0 {
			dataOffsets[i] = offset
			continue
		}
		align := sections[i].addralign
		if align > 1 {
			offset = (offset + align - 1) &^ (align - 1)
		}
		dataOffsets[i] = offset
		offset += uint64(len(sections[i].data))
	}
	shoff := (offset + 7) &^ 7

	var out bytes.Buffer
	// ELF header.
	hdr := make([]byte, ehSize)
	copy(hdr, []byte{0x7f, 'E', 'L', 'F', 2 /*64*/, 1 /*LSB*/, 1 /*version*/})
	le.PutUint16(hdr[16:18], 1)   // ET_REL
	le.PutUint16(hdr[18:20], 247) // EM_BPF
	le.PutUint32(hdr[20:24], 1)   // EV_CURRENT
	le.PutUint64(hdr[40:48], shoff)
	le.PutUint16(hdr[52:54], ehSize)
	le.PutUint16(hdr[58:60], shSize)
	le.PutUint16(hdr[60:62], uint16(len(sections)))
	le.PutUint16(hdr[62:64], uint16(shstrndx))
	out.Write(hdr)

	// Section data.
	for i := range sections {
		if len(sections[i].data) == 0 {
			continue
		}
		for uint64(out.Len()) < dataOffsets[i] {
			out.WriteByte(0)
		}
		out.Write(sections[i].data)
	}
	for uint64(out.Len()) < shoff {
		out.WriteByte(0)
	}

	// Section header table.
	for i, s := range sections {
		sh := make([]byte, shSize)
		le.PutUint32(sh[0:4], s.nameOff)
		le.PutUint32(sh[4:8], s.typ)
		le.PutUint64(sh[8:16], s.flags)
		le.PutUint64(sh[24:32], dataOffsets[i])
		le.PutUint64(sh[32:40], uint64(len(s.data)))
		le.PutUint32(sh[40:44], s.link)
		le.PutUint32(sh[44:48], s.info)
		le.PutUint64(sh[48:56], s.addralign)
		le.PutUint64(sh[56:64], s.entsize)
		if i == 0 {
			sh = make([]byte, shSize)
		}
		out.Write(sh)
	}
	return out.Bytes(), nil
}
