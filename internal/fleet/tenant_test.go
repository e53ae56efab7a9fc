package fleet

import (
	"errors"
	"math"
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/tenant"
)

func tenantSpecs(t *testing.T) []tenant.Spec {
	t.Helper()
	toy, ok := apps.ByName("toy")
	if !ok {
		t.Fatal("unknown app toy")
	}
	fw, ok := apps.ByName("firewall")
	if !ok {
		t.Fatal("unknown app firewall")
	}
	return []tenant.Spec{
		{Name: "toy#0", App: toy, Share: 0.5, VLAN: 100},
		{Name: "fw#1", App: fw, Share: 0.5, VLAN: 200},
	}
}

// TestFleetTenantMode: a fleet of multi-tenant devices serves the
// tenants' interleaved VLAN stream through the consistent-hash ring,
// folds every shard's per-tenant sub-reports into one fleet-level
// per-tenant view, and keeps the extended loss ledger exact.
func TestFleetTenantMode(t *testing.T) {
	c, err := New(Config{
		Devices:      3,
		Tenants:      tenantSpecs(t),
		Seed:         11,
		EpochPackets: 96,
		Verify:       false,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(6)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Accounted() {
		t.Errorf("loss books don't balance: %+v", rep)
	}
	if rep.Delivered == 0 {
		t.Fatal("fleet delivered nothing")
	}
	// Per-tenant sub-reports from all shards fold by tenant name: the
	// fleet view has exactly one row per tenant, each row internally
	// consistent, and together they cover every classified arrival.
	if len(rep.Device.PerTenant) != 2 {
		t.Fatalf("fleet view has %d tenant rows, want 2: %+v", len(rep.Device.PerTenant), rep.Device.PerTenant)
	}
	var steered uint64
	for _, sl := range rep.Device.PerTenant {
		if !sl.Accounted() {
			t.Errorf("tenant %s fleet-folded ledger broken: %+v", sl.Name, sl)
		}
		if sl.Received == 0 {
			t.Errorf("tenant %s starved across the whole fleet: %+v", sl.Name, sl)
		}
		steered += sl.Steered
	}
	if steered+rep.QuarantinedLoss != rep.Generated {
		t.Errorf("classifier attribution leaks: %d steered + %d quarantined != %d generated",
			steered, rep.QuarantinedLoss, rep.Generated)
	}
	for _, d := range rep.PerDevice {
		if d.State != "healthy" || d.DeadTenants != 0 {
			t.Errorf("clean run damaged device %d: %+v", d.ID, d)
		}
	}
}

// TestFleetTenantModeValidation: single-pipeline machinery is rejected
// up front, and an unaffordable spec list fails New with the typed
// admission error from the tenant gate.
func TestFleetTenantModeValidation(t *testing.T) {
	specs := tenantSpecs(t)
	if _, err := New(Config{Tenants: specs, Verify: true}); err == nil {
		t.Error("Verify accepted in tenant mode")
	}
	if _, err := New(Config{Tenants: specs, Update: toyUpdate(t)}); err == nil {
		t.Error("fleet-wide Update accepted in tenant mode")
	}
	if _, err := New(Config{Tenants: specs, CorruptAt: map[int][]int{1: {0}}}); err == nil {
		t.Error("CorruptAt accepted in tenant mode")
	}
	_, err := New(Config{Tenants: specs, TenantBandPct: 9}) // below the Corundum shell's own footprint
	var ae *tenant.AdmissionError
	if !errors.As(err, &ae) {
		t.Errorf("unaffordable tenant list returned %v, want a tenant.AdmissionError", err)
	}
}

// TestFleetDeviceRatesFoldInTime: Report.Device sums the devices of an
// epoch, which serve side by side, but weights the epochs, which follow
// one another, by the cycles they served for. Four toy devices offered
// 50 Mpps each read 200 Mpps however many epochs the run lasts, and a
// tenant's fleet-wide rate does not grow with the epoch count either.
func TestFleetDeviceRatesFoldInTime(t *testing.T) {
	for _, epochs := range []int{3, 12} {
		rep, _ := mustRun(t, Config{App: apps.Toy(), Seed: 5, EpochPackets: 128}, epochs)
		if got := rep.Device.OfferedMpps; math.Abs(got-200) > 1e-9 {
			t.Errorf("%d epochs: Device.OfferedMpps = %v, want 200", epochs, got)
		}
	}
	var rates [2][]float64
	for i, epochs := range []int{3, 12} {
		rep, _ := mustRun(t, Config{Tenants: tenantSpecs(t), Seed: 11, EpochPackets: 96}, epochs)
		for _, sl := range rep.Device.PerTenant {
			rates[i] = append(rates[i], sl.AchievedMpps)
		}
	}
	for i := range rates[0] {
		if r := rates[1][i] / rates[0][i]; r < 0.9 || r > 1.1 {
			t.Errorf("tenant %d: %.1f Mpps over 12 epochs, %.1f over 3", i, rates[1][i], rates[0][i])
		}
	}
}
