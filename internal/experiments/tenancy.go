package experiments

import (
	"fmt"

	"ehdl/internal/apps"
	"ehdl/internal/faults"
	"ehdl/internal/hwsim"
	"ehdl/internal/nic"
	"ehdl/internal/protect"
	"ehdl/internal/tenant"
)

// tenancy runs the noisy-neighbor ablation for the multi-tenant device:
// an aggressor tenant offering 3x its share under a full-menu fault
// campaign, beside a clean victim, with per-tenant isolation on and
// off. With isolation (per-tenant token buckets, per-tenant fault
// forks), the aggressor's overload is shed from its own budget and the
// victim's service is untouched; with the NoIsolation ablation (one
// shared admission pool, one shared fault injector), the aggressor
// starves and perturbs the victim. The victim's bit-identical-beside-a-
// noisy-neighbor guarantee is asserted by the tenant package's chaos
// gate; this table quantifies what the isolation machinery buys.
func tenancy(cfg Config) (Table, error) {
	t := Table{ID: "tenancy", Title: "Noisy-neighbor ablation: per-tenant isolation on vs off",
		Columns: []string{"Isolation", "Tenant", "Steered", "Admitted", "Throttled", "Received", "Lost", "Faults", "Mpps"}}

	const seed = 0x7e11
	aggressor := tenant.Spec{
		Name: "aggressor", App: apps.Toy(), Share: 0.5, VLAN: 100,
		Shell: nic.ShellConfig{
			Faults: faults.Profile(0.6, seed),
			Sim: hwsim.Config{
				Protection:    protect.LevelECC,
				MaxRecoveries: -1,
			},
		},
	}
	victim := tenant.Spec{Name: "victim", App: apps.Firewall(), Share: 0.5, VLAN: 200}

	// The aggressor offers 3x its fair share of the arrival stream.
	muxSpecs := []tenant.Spec{aggressor, victim}
	muxSpecs[0].Share = 0.75
	muxSpecs[1].Share = 0.25

	n := min(cfg.packets(), 2048)
	for _, noIso := range []bool{false, true} {
		d := tenant.NewDevice(tenant.DeviceConfig{
			Seed:         seed,
			EpochPackets: 128,
			EpochBudget:  64,
			NoIsolation:  noIso,
		})
		for _, sp := range []tenant.Spec{aggressor, victim} {
			if _, err := d.AdmitTenant(sp); err != nil {
				return t, err
			}
		}
		mux := tenant.NewTrafficMux(muxSpecs, seed)
		rep, err := d.RunLoad(mux.Next, n, 50e6)
		if err != nil {
			return t, err
		}
		if !rep.Accounted() {
			return t, fmt.Errorf("experiments: tenancy ledger does not balance (noIso=%v)", noIso)
		}
		mode := "on"
		if noIso {
			mode = "off (shared pool)"
		}
		for _, sl := range rep.PerTenant {
			t.Rows = append(t.Rows, []string{
				mode, sl.Name, u64s(sl.Steered), u64s(sl.Admitted), u64s(sl.Throttled),
				u64s(sl.Received), u64s(sl.Lost), u64s(sl.FaultsInjected), f2(sl.AchievedMpps),
			})
		}
	}

	util := admissionFootnote()
	t.Notes = append(t.Notes,
		"aggressor offers 3x its share under a 0.6-intensity fault campaign; the epoch admission budget is half the arrival batch",
		"isolation on: per-tenant token buckets shed the aggressor's own overload; off: one FCFS pool the aggressor drains first, starving the victim",
		"the ablation also replaces per-tenant fault forks with the device-shared injector, so the off rows run the policing ablation without the fault campaign",
		util,
		"bit-identical victim verdicts and map state beside the noisy neighbor are asserted by internal/tenant's TestTenantNoisyNeighborChaosGate")
	return t, nil
}

// admissionFootnote prices the scenario's two tenants through the real
// admission gate so the table records what the budget bookkeeping says.
func admissionFootnote() string {
	d := tenant.NewDevice(tenant.DeviceConfig{})
	for i, app := range []*apps.App{apps.Toy(), apps.Firewall()} {
		if _, err := d.AdmitTenant(tenant.Spec{
			Name: fmt.Sprintf("t%d", i), App: app, Share: 0.5, VLAN: uint16(100 * (i + 1)),
		}); err != nil {
			return fmt.Sprintf("admission pricing failed: %v", err)
		}
	}
	u := d.Used()
	return fmt.Sprintf("admission gate prices the pair at %d LUTs / %d BRAM36 with the Corundum shell, %.2f%% of the Alveo U50",
		u.LUTs, u.BRAM36, d.Utilisation())
}
