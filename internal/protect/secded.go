package protect

import "math/bits"

// SECDED is the Hamming(72,64) single-error-correct, double-error-
// detect code: 64 data bits, 7 Hamming check bits and one overall
// parity bit, the exact code Xilinx BRAM primitives implement with
// their 8 spare bits per 64-bit word.
//
// Construction: data bits occupy codeword positions 1..71 that are not
// powers of two; check bit j guards every position with bit j set; the
// overall parity bit (stored as bit 7 of the check byte) makes the full
// 72-bit codeword even-parity, which disambiguates single from double
// errors.
type SECDED struct{}

// dataPos[i] is the codeword position of data bit i; posData is the
// inverse (0 for positions holding check bits).
var dataPos [64]int
var posData [72]int

func init() {
	for i := range posData {
		posData[i] = -1
	}
	i := 0
	for pos := 1; pos < 72 && i < 64; pos++ {
		if pos&(pos-1) == 0 { // power of two: a Hamming check bit
			continue
		}
		dataPos[i] = pos
		posData[pos] = i
		i++
	}
}

// Level implements Codec.
func (SECDED) Level() Level { return LevelECC }

// CheckBytesPerWord implements Codec: 8 check bits per word.
func (SECDED) CheckBytesPerWord() int { return 1 }

// encodeWord computes the check byte for one 64-bit data word.
func encodeWord(x uint64) byte {
	var check byte
	for i := 0; i < 64; i++ {
		if x>>i&1 == 0 {
			continue
		}
		check ^= byte(dataPos[i]) // accumulates p0..p6 in bits 0..6
	}
	check &= 0x7f
	// Overall parity over data plus the seven check bits.
	overall := byte(bits.OnesCount64(x)^bits.OnesCount8(check)) & 1
	return check | overall<<7
}

// Encode implements Codec.
func (c SECDED) Encode(value, check []byte) {
	for w := 0; w < Words(len(value)); w++ {
		c.EncodeWord(value, check, w)
	}
}

// EncodeWord implements Codec.
func (SECDED) EncodeWord(value, check []byte, w int) {
	check[w] = encodeWord(loadWord(value, w))
}

// CheckWord implements Codec: syndrome decode with in-place correction.
func (SECDED) CheckWord(value, check []byte, w int) WordStatus {
	x := loadWord(value, w)
	stored := check[w]
	fresh := encodeWord(x)
	syndrome := (stored ^ fresh) & 0x7f
	// Even overall parity across all 72 bits: data, 7 check bits and the
	// overall bit itself.
	odd := bits.OnesCount64(x) + bits.OnesCount8(stored) // stored includes bit 7
	if syndrome == 0 && odd%2 == 0 {
		return WordOK
	}
	if odd%2 == 1 {
		// Single-bit error at codeword position `syndrome` (0 means the
		// overall parity bit itself flipped).
		switch {
		case syndrome == 0:
			check[w] ^= 0x80
		case int(syndrome) < len(posData) && posData[syndrome] >= 0:
			x ^= 1 << posData[syndrome]
			storeWord(value, w, x)
		case syndrome&(syndrome-1) == 0:
			// One of the seven Hamming check bits flipped in storage.
			check[w] ^= syndrome
		default:
			// A syndrome pointing outside the codeword: at least two
			// upsets conspired; do not touch the data.
			return WordUncorrectable
		}
		return WordCorrected
	}
	// Non-zero syndrome with even overall parity: a double-bit error.
	return WordUncorrectable
}
