package power

import "testing"

func TestBands(t *testing.T) {
	for _, design := range []string{"eHDL", "hXDP", "SDNet"} {
		p := U50Host(design)
		if p.MinWatts != 80 || p.MaxWatts != 85 {
			t.Errorf("U50 band = [%v,%v]", p.MinWatts, p.MaxWatts)
		}
	}
	bf2 := Bf2Host()
	if bf2.MinWatts != 100 || bf2.MaxWatts != 105 {
		t.Errorf("Bluefield-2 band = [%v,%v], the paper says 100-105 W", bf2.MinWatts, bf2.MaxWatts)
	}
	if bf2.watts() <= U50Host("eHDL").watts() {
		t.Error("the Bluefield-2 host must draw more than the U50 host")
	}
}

func TestEnergyPerPacket(t *testing.T) {
	// At 148 Mpps the FPGA host spends well under a microjoule per
	// packet; a 3 Mpps processor spends ~30x more.
	fpga := EnergyPerPacketNanojoules(U50Host("eHDL"), 148)
	dpu := EnergyPerPacketNanojoules(Bf2Host(), 3)
	if fpga <= 0 || dpu <= 0 {
		t.Fatal("degenerate energy figures")
	}
	if dpu/fpga < 20 {
		t.Errorf("energy ratio DPU/FPGA = %.1f, want large", dpu/fpga)
	}
	if EnergyPerPacketNanojoules(Bf2Host(), 0) != 0 {
		t.Error("zero rate must yield zero energy")
	}
}
