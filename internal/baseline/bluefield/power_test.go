package bluefield_test

import (
	"testing"

	"ehdl/internal/experiments"
)

func TestPowerBand(t *testing.T) {
	// The host of this DPU draws the Bluefield-2 band of Section 5.2.
	tab, err := experiments.All()["power"](experiments.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[0] == "Bluefield-2" {
			if row[1] != "100-105" {
				t.Errorf("power band = %s W, paper says 100-105", row[1])
			}
			return
		}
	}
	t.Fatal("the power table has no Bluefield-2 row")
}
