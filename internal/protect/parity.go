package protect

import "math/bits"

// parity is the detection-only codec: one parity bit per 64-bit word
// (stored in bit 0 of the check byte; the FPGA stores literally one
// spare bit). Any odd number of upset bits in a word is detected and
// reported as uncorrectable — the word is poisoned, never silently
// consumed — which is what forces the shell onto the checkpointed
// drain-and-restart path instead of the in-place correction ECC gets.
type parity struct{}

// Level implements Codec.
func (parity) Level() Level { return LevelParity }

// CheckBytesPerWord implements Codec.
func (parity) CheckBytesPerWord() int { return 1 }

// Encode implements Codec.
func (c parity) Encode(value, check []byte) {
	for w := 0; w < Words(len(value)); w++ {
		c.EncodeWord(value, check, w)
	}
}

// EncodeWord implements Codec.
func (parity) EncodeWord(value, check []byte, w int) {
	check[w] = byte(bits.OnesCount64(loadWord(value, w))) & 1
}

// CheckWord implements Codec: detection only, no correction.
func (parity) CheckWord(value, check []byte, w int) WordStatus {
	if byte(bits.OnesCount64(loadWord(value, w)))&1 == check[w]&1 {
		return WordOK
	}
	return WordUncorrectable
}
