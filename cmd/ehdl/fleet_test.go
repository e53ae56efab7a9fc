package main

import (
	"encoding/json"
	"testing"

	"ehdl/internal/fleet"
	"ehdl/internal/nic"
	"ehdl/internal/tenant"
)

// TestOneDeviceFleetServesTenantsLikeOneDevice is why sim has no tenant
// mode: `fleet -devices 1 -tenants …` steers, admits, throttles,
// serves and loses the same frames per tenant as the one tenant.Device
// that sim's tenant mode used to build — admitted on the same specs,
// fed from the same traffic mux, run on the same packet total at the
// same rate. The fleet polices once per fleet epoch, so the counts
// agree at the default -epoch-packets, which is the device's own
// policing epoch. The spec list under-subscribes the budget (shares
// sum to 0.6) so that the token buckets shed frames.
func TestOneDeviceFleetServesTenantsLikeOneDevice(t *testing.T) {
	const (
		spec    = "firewall:0.3,toy:0.3"
		packets = 4096
		rate    = 148.8
		seed    = 3
	)
	specs, err := tenant.ParseSpecList(spec, nic.ShellConfig{})
	if err != nil {
		t.Fatal(err)
	}
	dev := tenant.NewDevice(tenant.DeviceConfig{Seed: seed})
	for _, sp := range specs {
		if _, err := dev.AdmitTenant(sp); err != nil {
			t.Fatal(err)
		}
	}
	want, err := dev.RunLoad(tenant.NewTrafficMux(specs, seed).Next, packets, rate*1e6)
	if err != nil {
		t.Fatal(err)
	}

	code, stdout, stderr := runCmd(t, "fleet", "-devices", "1", "-tenants", spec,
		"-epochs", "16", "-rate", "148.8", "-seed", "3", "-json")
	if code != 0 {
		t.Fatalf("fleet: exit %d: %s", code, stderr)
	}
	var got fleet.Report
	if err := json.Unmarshal([]byte(stdout), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Device.PerTenant) != len(want.PerTenant) {
		t.Fatalf("fleet has %d tenant rows, the device %d", len(got.Device.PerTenant), len(want.PerTenant))
	}
	throttled := uint64(0)
	for i, w := range want.PerTenant {
		g := got.Device.PerTenant[i]
		if g.Name != w.Name || g.Steered != w.Steered || g.Admitted != w.Admitted ||
			g.Throttled != w.Throttled || g.Received != w.Received || g.Lost != w.Lost {
			t.Errorf("tenant %d: fleet %s steered %d admitted %d throttled %d received %d lost %d;"+
				" device %s steered %d admitted %d throttled %d received %d lost %d",
				i, g.Name, g.Steered, g.Admitted, g.Throttled, g.Received, g.Lost,
				w.Name, w.Steered, w.Admitted, w.Throttled, w.Received, w.Lost)
		}
		throttled += w.Throttled
	}
	if throttled == 0 {
		t.Error("no tenant was throttled: the comparison does not reach the policer")
	}
}
