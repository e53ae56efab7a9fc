// Package protect implements the memory-protection codecs of the
// self-healing NIC: a Hamming(72,64) SECDED code and a per-word parity
// code over the 64-bit words of stored map values, plus the budgeted
// background scrubber that walks protected stores correcting latent
// single-event upsets before they accumulate into uncorrectable
// multi-bit errors.
//
// The package mirrors what an FPGA design gets almost for free: Xilinx
// block RAMs carry 8 spare bits per 64 data bits exactly so that a
// Hamming(72,64) code can ride along with every word, and production
// NIC pipelines pair that with a scrubber FSM that sweeps the BRAM
// address space during idle port cycles. Here the codecs operate on the
// byte-level map storage of internal/maps and the scrubber is driven by
// the simulator clock, so a protection campaign is as deterministic as
// the rest of the pipeline: same seed, same faults, same corrections.
//
// The package is a leaf: internal/maps wraps its stores with these
// codecs and internal/hwsim schedules the scrubber, never the other way
// around.
package protect

import "fmt"

// Level selects how a map's backing store is protected.
type Level int

// Protection levels, in increasing order of capability and cost.
const (
	// LevelNone stores raw words: upsets are silent.
	LevelNone Level = iota
	// LevelParity stores one parity bit per 64-bit word: single-bit
	// upsets are detected (never silently consumed) but not corrected.
	LevelParity
	// LevelECC stores a Hamming(72,64) SECDED code per word: single-bit
	// upsets are corrected in place, double-bit upsets are detected.
	LevelECC
)

func (l Level) String() string {
	switch l {
	case LevelNone:
		return "none"
	case LevelParity:
		return "parity"
	case LevelECC:
		return "ecc"
	}
	return fmt.Sprintf("level-%d", int(l))
}

// ParseLevel converts the textual flag form.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "none", "":
		return LevelNone, nil
	case "parity":
		return LevelParity, nil
	case "ecc":
		return LevelECC, nil
	}
	return LevelNone, fmt.Errorf("protect: unknown protection level %q (want none|parity|ecc)", s)
}

// WordStatus is the outcome of checking one protected word.
type WordStatus int

// Word check outcomes.
const (
	// WordOK: data and check bits agree.
	WordOK WordStatus = iota
	// WordCorrected: a single-bit error was corrected in place.
	WordCorrected
	// WordUncorrectable: the error exceeds the code's correction
	// capability (any parity mismatch; a double-bit error under ECC).
	WordUncorrectable
)

// wordBytes is the data word granularity of every codec: 64 bits,
// matching the BRAM physical word the FPGA protects.
const wordBytes = 8

// Words returns the number of protected words covering valueLen bytes.
// The final partial word is padded with zeros for encoding purposes.
func Words(valueLen int) int {
	return (valueLen + wordBytes - 1) / wordBytes
}

// Codec computes and checks per-word redundancy for a byte-addressed
// value. Implementations are stateless and safe to share across maps.
type Codec interface {
	// Level identifies the protection scheme.
	Level() Level
	// CheckBytesPerWord is the redundancy storage per 64-bit data word.
	CheckBytesPerWord() int
	// Encode fills check (len = Words(len(value)) * CheckBytesPerWord)
	// with the code for value.
	Encode(value, check []byte)
	// EncodeWord recomputes the check bytes of word w only.
	EncodeWord(value, check []byte, w int)
	// CheckWord verifies word w of value against its check bytes,
	// correcting value (and check) in place when the code allows it.
	CheckWord(value, check []byte, w int) WordStatus
}

// ForLevel returns the codec for a protection level, or nil for
// LevelNone.
func ForLevel(l Level) Codec {
	switch l {
	case LevelParity:
		return parity{}
	case LevelECC:
		return SECDED{}
	}
	return nil
}

// Counters aggregates check outcomes for one protected store.
type Counters struct {
	// Checked counts word checks performed (lookup path and scrubber).
	Checked uint64
	// Corrected counts single-bit errors corrected in place.
	Corrected uint64
	// Uncorrectable counts detected errors beyond the code's reach.
	Uncorrectable uint64
}

// Add accumulates another counter snapshot.
func (c Counters) Add(o Counters) Counters {
	return Counters{
		Checked:       c.Checked + o.Checked,
		Corrected:     c.Corrected + o.Corrected,
		Uncorrectable: c.Uncorrectable + o.Uncorrectable,
	}
}

// Note records one word-check outcome.
func (c *Counters) Note(st WordStatus) {
	c.Checked++
	switch st {
	case WordCorrected:
		c.Corrected++
	case WordUncorrectable:
		c.Uncorrectable++
	}
}

// loadWord gathers word w of value, zero-padding past the end.
func loadWord(value []byte, w int) uint64 {
	var x uint64
	off := w * wordBytes
	for i := 0; i < wordBytes && off+i < len(value); i++ {
		x |= uint64(value[off+i]) << (8 * i)
	}
	return x
}

// storeWord scatters x back into word w of value, ignoring padding.
func storeWord(value []byte, w int, x uint64) {
	off := w * wordBytes
	for i := 0; i < wordBytes && off+i < len(value); i++ {
		value[off+i] = byte(x >> (8 * i))
	}
}
