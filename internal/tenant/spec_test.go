package tenant

import (
	"math"
	"strings"
	"testing"

	"ehdl/internal/hdl"
	"ehdl/internal/nic"
)

// TestParseSpecList: the CLI spec grammar — explicit shares, share-less
// headroom splitting, naming and VLAN assignment — and every reject.
func TestParseSpecList(t *testing.T) {
	specs, err := ParseSpecList("firewall:0.5,toy:0.25,router:0.25", nic.ShellConfig{Queues: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("got %d specs, want 3", len(specs))
	}
	wantNames := []string{"firewall#0", "toy#1", "router#2"}
	wantShares := []float64{0.5, 0.25, 0.25}
	for i, sp := range specs {
		if sp.Name != wantNames[i] {
			t.Errorf("spec %d named %q, want %q", i, sp.Name, wantNames[i])
		}
		if sp.Share != wantShares[i] {
			t.Errorf("spec %d share %g, want %g", i, sp.Share, wantShares[i])
		}
		if sp.VLAN != uint16(100+i) {
			t.Errorf("spec %d VLAN %d, want %d", i, sp.VLAN, 100+i)
		}
		if sp.Shell.Queues != 2 {
			t.Errorf("spec %d lost the shell template: %+v", i, sp.Shell)
		}
	}

	// Share-less entries split the headroom the explicit share leaves.
	specs, err = ParseSpecList("firewall:0.5,toy,router", nic.ShellConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs[1:] {
		if math.Abs(sp.Share-0.25) > 1e-9 {
			t.Errorf("%s got share %g, want 0.25 (half the 0.5 headroom)", sp.Name, sp.Share)
		}
	}

	for _, tc := range []struct {
		list, wantErr string
	}{
		{"", "empty entry"},
		{"firewall:0.5,,toy:0.5", "empty entry"},
		{"nosuchapp:0.5", "unknown application"},
		{"firewall:zero", "bad share"},
		{"firewall:0", "outside (0,1]"},
		{"firewall:1.5", "outside (0,1]"},
		{"firewall:1,toy", "no headroom"},
	} {
		_, err := ParseSpecList(tc.list, nic.ShellConfig{})
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("ParseSpecList(%q) = %v, want error containing %q", tc.list, err, tc.wantErr)
		}
	}
}

// TestDeviceAccessors: the small surface the CLIs and fleet controller
// read — tenant listing, the epoch counter, the default-tenant stream
// tag, and the admission error's rendered message.
func TestDeviceAccessors(t *testing.T) {
	d := NewDevice(DeviceConfig{})
	// A default tenant may omit its VLAN; its fault/jitter streams then
	// tag by admission index in the reserved >4094 space.
	tn, err := d.AdmitTenant(Spec{Name: "catchall", App: mustApp(t, "toy"), Share: 0.5, Default: true})
	if err != nil {
		t.Fatal(err)
	}
	if tag := streamTag(tn.Spec, tn.id); tag != 4096 {
		t.Errorf("VLAN-less tenant stream tag %d, want 4096", tag)
	}
	if got := d.Tenants(); len(got) != 1 || got[0] != tn {
		t.Errorf("Tenants() = %v, want the one admitted tenant", got)
	}
	if d.epoch != 0 {
		t.Errorf("fresh device at epoch %d, want 0", d.epoch)
	}
	if _, err := d.RunLoad(NewTrafficMux([]Spec{tn.Spec}, 3).Next, 64, 50e6); err != nil {
		t.Fatal(err)
	}
	if d.epoch != 1 {
		t.Errorf("after one 64-packet load the device is at epoch %d, want 1", d.epoch)
	}

	ae := &AdmissionError{
		tenant: "big", need: hdl.Resources{LUTs: 9000}, used: hdl.Resources{LUTs: 100},
		utilPct: 91.5, bandPct: 70,
	}
	msg := ae.Error()
	for _, frag := range []string{`"big"`, "91.5%", "70.0%", "LUT 9000", "LUT 100"} {
		if !strings.Contains(msg, frag) {
			t.Errorf("AdmissionError message %q missing %q", msg, frag)
		}
	}
}
