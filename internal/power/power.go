// Package power models the wall-power measurements of Section 5.2: the
// test machine's consumption with its CPU idle in the lowest power
// state, hosting either the Alveo U50 (80-85 W regardless of which
// design is flashed) or the Bluefield-2 (100-105 W).
package power

// Profile is the idle server hosting one NIC.
type Profile struct {
	NIC string
	// MinWatts/MaxWatts bound the measured band.
	MinWatts, MaxWatts float64
}

// watts returns the centre of the band.
func (p Profile) watts() float64 { return (p.MinWatts + p.MaxWatts) / 2 }

// U50Host returns the Alveo U50 host profile. The FPGA's draw varies
// little across the flashed designs (eHDL, hXDP or SDNet): the paper
// measured the same 80-85 W band for all three.
func U50Host(design string) Profile {
	return Profile{
		NIC:      "Alveo U50 (" + design + ")",
		MinWatts: 80,
		MaxWatts: 85,
	}
}

// Bf2Host returns the Bluefield-2 host profile: the DPU's Arm complex
// and switch silicon add roughly 20 W over the FPGA.
func Bf2Host() Profile {
	return Profile{
		NIC:      "Bluefield-2",
		MinWatts: 100,
		MaxWatts: 105,
	}
}

// EnergyPerPacketNanojoules divides wall power by a packet rate: the
// "rough estimate of energy requirements" of Section 5.2.
func EnergyPerPacketNanojoules(p Profile, mpps float64) float64 {
	if mpps <= 0 {
		return 0
	}
	return p.watts() / (mpps * 1e6) * 1e9
}
