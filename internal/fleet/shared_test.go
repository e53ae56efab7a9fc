package fleet

import (
	"reflect"
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/core"
	"ehdl/internal/nic"
	"ehdl/internal/pktgen"
	"ehdl/internal/tenant"
)

// TestFleetSharedPipelineReadOnly: a compiled design is a read-only value,
// which is what lets every fleet device share one. Each bundled app is
// compiled once and served on an interpreter shell and on a compiled
// (fast path) shell, and three of the designs then serve a four-device
// tenant fleet whose devices step concurrently (run it under -race);
// afterwards every design still equals a fresh compile.
func TestFleetSharedPipelineReadOnly(t *testing.T) {
	bundled := append(apps.All(), apps.Toy(), apps.LeakyBucket(), apps.LoadBalancer())
	compile := func(app *apps.App) *core.Pipeline {
		t.Helper()
		prog, err := app.Program()
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		pl, err := core.Compile(prog, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		return pl
	}
	designs := make(map[string]*core.Pipeline)
	for _, app := range bundled {
		pl := compile(app)
		designs[app.Name] = pl
		for _, cfg := range []nic.ShellConfig{{}, {FastPath: true}} {
			sh, err := nic.New(pl, cfg)
			if err != nil {
				t.Fatalf("%s: %v", app.Name, err)
			}
			if err := app.Setup(sh.Maps()); err != nil {
				t.Fatalf("%s: %v", app.Name, err)
			}
			if engine, _ := sh.Serving(); cfg.FastPath != sh.FastPath() {
				t.Fatalf("%s: fast path %v served by %s", app.Name, cfg.FastPath, engine)
			}
			rep, err := sh.RunLoad(pktgen.NewGenerator(app.Traffic).Next, 300, 50e6)
			if err != nil {
				t.Fatalf("%s: %v", app.Name, err)
			}
			if rep.Received == 0 {
				t.Fatalf("%s: shell retired nothing", app.Name)
			}
		}
	}

	specs := []tenant.Spec{
		{Name: "fw", App: apps.Firewall(), Share: 0.4, VLAN: 100, Design: designs["firewall"]},
		{Name: "router", App: apps.Router(), Share: 0.3, VLAN: 101, Design: designs["router"]},
		{Name: "dnat", App: apps.DNAT(), Share: 0.3, VLAN: 102, Design: designs["dnat"]},
	}
	c, err := New(Config{Devices: 4, Tenants: specs, Seed: 3, EpochPackets: 128})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range c.devices {
		for i, tn := range d.td.Tenants() {
			if tn.Spec.Design != specs[i].Design {
				t.Fatalf("device %d serves its own %s design, not the shared one", d.id, tn.Spec.Name)
			}
		}
	}
	if rep, err := c.Run(4); err != nil {
		t.Fatal(err)
	} else if rep.Delivered == 0 {
		t.Fatal("fleet delivered nothing")
	}

	// Specs that arrive without a design are compiled once, for every
	// device.
	c, err = New(Config{Devices: 4, Tenants: tenantSpecs(t)})
	if err != nil {
		t.Fatal(err)
	}
	first := c.devices[0].td.Tenants()
	for _, d := range c.devices[1:] {
		for i, tn := range d.td.Tenants() {
			if tn.Spec.Design == nil || tn.Spec.Design != first[i].Spec.Design {
				t.Errorf("device %d compiled its own %s design", d.id, tn.Spec.Name)
			}
		}
	}

	for _, app := range bundled {
		if !reflect.DeepEqual(designs[app.Name], compile(app)) {
			t.Errorf("%s: serving changed the shared design", app.Name)
		}
	}
}
