package ebpf

import (
	"encoding/binary"
	"fmt"
)

// marshal appends the little-endian on-wire encoding of the instruction
// to buf and returns the extended slice. LDDW emits two slots.
func (ins Instruction) marshal(buf []byte) []byte {
	var slot [WordSize]byte
	slot[0] = ins.Op
	slot[1] = uint8(ins.Src&0x0f)<<4 | uint8(ins.Dst&0x0f)
	binary.LittleEndian.PutUint16(slot[2:4], uint16(ins.Off))
	if ins.IsLoadImm64() {
		binary.LittleEndian.PutUint32(slot[4:8], uint32(ins.Imm64))
		buf = append(buf, slot[:]...)
		var hi [WordSize]byte
		binary.LittleEndian.PutUint32(hi[4:8], uint32(ins.Imm64>>32))
		return append(buf, hi[:]...)
	}
	binary.LittleEndian.PutUint32(slot[4:8], uint32(ins.Imm))
	return append(buf, slot[:]...)
}

// unmarshal decodes one instruction from the start of data, returning
// the instruction and the number of bytes consumed (8 or 16).
func unmarshal(data []byte) (Instruction, int, error) {
	if len(data) < WordSize {
		return Instruction{}, 0, fmt.Errorf("ebpf: truncated instruction: %d bytes", len(data))
	}
	ins := Instruction{
		Op:  data[0],
		Dst: Register(data[1] & 0x0f),
		Src: Register(data[1] >> 4),
		Off: int16(binary.LittleEndian.Uint16(data[2:4])),
		Imm: int32(binary.LittleEndian.Uint32(data[4:8])),
	}
	if ins.IsLoadImm64() {
		if len(data) < 2*WordSize {
			return Instruction{}, 0, fmt.Errorf("ebpf: truncated lddw: %d bytes", len(data))
		}
		// The second slot carries only the upper immediate: opcode,
		// registers and offset must be zero, as the kernel requires.
		if data[8] != 0 || data[9] != 0 || data[10] != 0 || data[11] != 0 {
			return Instruction{}, 0, fmt.Errorf("ebpf: malformed lddw second slot %x", data[8:12])
		}
		hi := int64(int32(binary.LittleEndian.Uint32(data[12:16])))
		ins.Imm64 = int64(uint32(ins.Imm)) | hi<<32
		return ins, 2 * WordSize, nil
	}
	return ins, WordSize, nil
}

// MarshalInstructions encodes a whole instruction stream.
func MarshalInstructions(insns []Instruction) []byte {
	buf := make([]byte, 0, len(insns)*WordSize)
	for _, ins := range insns {
		buf = ins.marshal(buf)
	}
	return buf
}

// UnmarshalInstructions decodes a whole instruction stream. The input
// length must be a multiple of the slot size.
func UnmarshalInstructions(data []byte) ([]Instruction, error) {
	if len(data)%WordSize != 0 {
		return nil, fmt.Errorf("ebpf: bytecode length %d is not a multiple of %d", len(data), WordSize)
	}
	insns := make([]Instruction, 0, len(data)/WordSize)
	for off := 0; off < len(data); {
		ins, n, err := unmarshal(data[off:])
		if err != nil {
			return nil, fmt.Errorf("ebpf: at byte offset %d: %w", off, err)
		}
		insns = append(insns, ins)
		off += n
	}
	return insns, nil
}
