package hdl

import (
	"ehdl/internal/core"
	"ehdl/internal/protect"
)

// Protection hardware pricing: what the self-healing subsystem of
// internal/hwsim costs on the FPGA. The estimates follow the same
// calibrated-primitive approach as the rest of the package:
//
//   - Check-bit storage rides in BRAM beside the data words: 8 bits per
//     64 under Hamming(72,64) SECDED (exactly the spare bits UltraScale+
//     BRAMs provide), 1 bit per 64 under parity.
//   - Every write-capable map channel gains an encoder (XOR tree over
//     64 data bits); every read-capable channel gains a syndrome
//     decoder (second XOR tree, a 72-way corrector mux under ECC, a
//     single comparator under parity).
//   - One scrubber FSM per design walks the protected blocks through a
//     dedicated port: address counter, budget divider, word buffer.
//   - The drain-and-restart recovery rides with any protection level:
//     a checkpoint controller and per-map DMA channels that stream the
//     known-good copy to and from the card's HBM (keeping the shadow
//     off-chip, where it does not double the BRAM budget), plus the
//     backoff/drain sequencer.
type protectionCost struct {
	encoderLUTs      int // write-port encoder per write channel
	decoderLUTs      int // read-port syndrome decoder per read channel
	decoderFFs       int
	checkBitsPerWord int // extra storage per 64 data bits
}

func costOfLevel(level protect.Level) (protectionCost, bool) {
	switch level {
	case protect.LevelParity:
		return protectionCost{
			encoderLUTs:      24, // parity tree
			decoderLUTs:      26, // parity tree + mismatch flag
			decoderFFs:       8,
			checkBitsPerWord: 1,
		}, true
	case protect.LevelECC:
		return protectionCost{
			encoderLUTs:      180, // seven 36-input XOR trees + overall parity
			decoderLUTs:      260, // syndrome trees + 72-way corrector mux
			decoderFFs:       80,
			checkBitsPerWord: 8,
		}, true
	}
	return protectionCost{}, false
}

// EstimateProtection returns the incremental resources of protecting a
// pipeline's map memory at the given level: zero at LevelNone.
func EstimateProtection(p *core.Pipeline, level protect.Level) Resources {
	cost, on := costOfLevel(level)
	if !on || len(p.Maps) == 0 {
		return Resources{}
	}

	var r Resources
	for _, m := range elaborateMaps(p) {
		// Check-bit storage beside the data words.
		checkBits := (m.dataBits + 63) / 64 * cost.checkBitsPerWord
		r.BRAM36 += bram36(checkBits)

		// Encoders on write-capable channels (the host port always
		// writes), decoders on read-capable ones (the host port and the
		// scrubber always read).
		writePorts := m.writes + m.atomics + 1
		readPorts := m.reads + m.atomics + 2
		r.LUTs += cost.encoderLUTs * writePorts
		r.LUTs += cost.decoderLUTs * readPorts
		r.FFs += cost.decoderFFs * readPorts

		// Checkpoint shadow channel. The known-good copy itself lives in
		// the card's HBM behind the shell's memory interface (duplicating
		// every protected BRAM on-chip would double the dominant resource
		// of map-heavy designs); what the fabric pays is the per-map
		// copy-out/copy-back DMA channel.
		r.LUTs += 110
		r.FFs += 90
	}

	// One scrubber FSM walking every protected block.
	r.LUTs += 150
	r.FFs += 110

	// Checkpoint/recovery controller: drain sequencer, retry counter,
	// backoff timer, restore engine.
	r.LUTs += 400
	r.FFs += 300

	return r
}
