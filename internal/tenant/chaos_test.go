package tenant

import (
	"encoding/json"
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/conformance"
	"ehdl/internal/faults"
	"ehdl/internal/hwsim"
	"ehdl/internal/nic"
	"ehdl/internal/protect"
)

// noisyNeighborSpecs is the shared fixture for the noisy-neighbor gate:
// tenant A (the aggressor) runs under the full fault menu at intensity
// 0.9, tenant B (the victim) runs clean. Both runs of the gate feed the
// SAME mux stream built over both specs, so the victim sees
// byte-identical arrivals whether or not the aggressor is admitted.
func noisyNeighborSpecs(seed int64) (a, b Spec) {
	a = Spec{
		Name: "noisy", App: mustAppValue("toy"), Share: 0.5, VLAN: 100,
		Shell: nic.ShellConfig{
			Faults: faults.Profile(0.9, seed),
			Sim: hwsim.Config{
				Protection:            protect.LevelECC,
				ScrubCyclesPerWord:    4,
				WatchdogCycles:        8,  // hair-trigger: faults regularly escalate to drain-and-restart
				MaxRecoveries:         -1, // unbounded: the aggressor thrashes but survives
				RecoveryBackoffCycles: 32,
			},
		},
	}
	b = Spec{Name: "victim", App: mustAppValue("firewall"), Share: 0.5, VLAN: 200}
	return a, b
}

func mustAppValue(name string) *apps.App {
	a, ok := apps.ByName(name)
	if !ok {
		panic("unknown app " + name)
	}
	return a
}

// TestTenantNoisyNeighborChaosGate is the release gate for tenant
// isolation: tenant A is hammered with the full fault menu (SEUs in
// registers, stacks, packets and map words, malformed traffic, queue
// overflow bursts, flush storms) under load, and tenant B — on the same
// device, fed from the same interleaved arrival stream — must produce
// verdicts and map state bit-identical to a same-seed solo run with A
// absent. A's losses stay bounded and exactly accounted to A, and the
// whole run replays byte-identically.
func TestTenantNoisyNeighborChaosGate(t *testing.T) {
	const seed = 0x7e4a
	const packets = 512
	specA, specB := noisyNeighborSpecs(seed)

	run := func(withNoisy bool) (nic.Report, *Device) {
		d := NewDevice(DeviceConfig{Seed: seed, EpochPackets: 128})
		if withNoisy {
			if _, err := d.AdmitTenant(specA); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := d.AdmitTenant(specB); err != nil {
			t.Fatal(err)
		}
		mux := NewTrafficMux([]Spec{specA, specB}, seed)
		rep, err := d.RunLoad(mux.Next, packets, 50e6)
		if err != nil {
			t.Fatalf("withNoisy=%v: %v", withNoisy, err)
		}
		return rep, d
	}

	multi, dMulti := run(true)
	solo, dSolo := run(false)

	// The chaos campaign actually ran: the aggressor took faults and
	// recovered, otherwise the gate proves nothing.
	var noisy, victimMulti nic.TenantSlice
	for _, sl := range multi.PerTenant {
		switch sl.Name {
		case "noisy":
			noisy = sl
		case "victim":
			victimMulti = sl
		}
	}
	if noisy.FaultsInjected == 0 || noisy.Recoveries == 0 {
		t.Fatalf("aggressor untouched (faults %d, recoveries %d); campaign misconfigured",
			noisy.FaultsInjected, noisy.Recoveries)
	}

	// Loss is bounded and exactly accounted, per tenant and device-wide.
	if !multi.Accounted() {
		t.Errorf("multi-tenant ledger broken: %+v", multi)
	}
	for _, sl := range multi.PerTenant {
		if !sl.Accounted() {
			t.Errorf("tenant %s ledger broken: %+v", sl.Name, sl)
		}
	}
	if noisy.Lost+noisy.DownLoss > noisy.Steered+noisy.Sent {
		t.Errorf("aggressor loss unbounded: %+v", noisy)
	}
	if victimMulti.Lost != 0 || victimMulti.DownLoss != 0 {
		t.Errorf("victim charged losses under a neighbour's faults: %+v", victimMulti)
	}

	// Bit-identical victim verdicts: the victim's whole slice — counts,
	// latency, cycle counts, per-action verdicts — matches the solo run.
	var victimSolo nic.TenantSlice
	for _, sl := range solo.PerTenant {
		if sl.Name == "victim" {
			victimSolo = sl
		}
	}
	vm, err := json.Marshal(victimMulti)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := json.Marshal(victimSolo)
	if err != nil {
		t.Fatal(err)
	}
	if string(vm) != string(vs) {
		t.Errorf("victim verdicts diverge beside a noisy neighbour:\n multi %s\n solo  %s", vm, vs)
	}

	// Bit-identical victim map state.
	bMulti := dMulti.byName["victim"]
	bSolo := dSolo.byName["victim"]
	if err := conformance.CompareMaps(bSolo.sh.Maps(), bMulti.sh.Maps()); err != nil {
		t.Errorf("victim map state diverges beside a noisy neighbour: %v", err)
	}

	// In the solo run the aggressor's tagged frames hit no tenant: they
	// land in quarantine, never silently vanish.
	if solo.Quarantined == 0 || !solo.Accounted() {
		t.Errorf("solo run mis-ledgered the absent tenant's frames: %+v", solo)
	}

	// Byte-identical replay: a same-seed rerun of the full chaos run.
	replay, _ := run(true)
	rm, err := json.Marshal(multi)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := json.Marshal(replay)
	if err != nil {
		t.Fatal(err)
	}
	if string(rm) != string(rr) {
		t.Errorf("chaos run does not replay byte-identically:\n first  %s\n replay %s", rm, rr)
	}
}

// TestTenantIsolationAblation quantifies what the per-tenant token
// buckets buy: with isolation on, an oversubscribing aggressor sheds
// its own overload and the victim's grant is untouched; with the
// NoIsolation ablation (one shared FCFS pool), the aggressor drains the
// pool and starves the victim. The EXPERIMENTS.md noisy-neighbor table
// comes from this scenario.
func TestTenantIsolationAblation(t *testing.T) {
	const seed = 0xab1a
	aggressor := Spec{Name: "hog", App: mustAppValue("toy"), Share: 0.5, VLAN: 100}
	victim := Spec{Name: "victim", App: mustAppValue("firewall"), Share: 0.5, VLAN: 200}
	// The hog offers 3x its share of the stream.
	muxSpecs := []Spec{aggressor, victim}
	muxSpecs[0].Share = 0.75
	muxSpecs[1].Share = 0.25

	run := func(noIso bool) nic.Report {
		d := NewDevice(DeviceConfig{
			Seed: seed, EpochPackets: 128, EpochBudget: 64, NoIsolation: noIso,
		})
		if _, err := d.AdmitTenant(aggressor); err != nil {
			t.Fatal(err)
		}
		if _, err := d.AdmitTenant(victim); err != nil {
			t.Fatal(err)
		}
		mux := NewTrafficMux(muxSpecs, seed)
		rep, err := d.RunLoad(mux.Next, 512, 50e6)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Accounted() {
			t.Errorf("noIso=%v ledger broken: %+v", noIso, rep)
		}
		return rep
	}

	slice := func(rep nic.Report, name string) nic.TenantSlice {
		for _, sl := range rep.PerTenant {
			if sl.Name == name {
				return sl
			}
		}
		t.Fatalf("no slice for %s", name)
		return nic.TenantSlice{}
	}

	iso := run(false)
	shared := run(true)

	// Isolated: the hog is throttled to its share, the victim's smaller
	// demand fits its own bucket entirely.
	if slice(iso, "hog").Throttled == 0 {
		t.Errorf("isolated hog never throttled: %+v", slice(iso, "hog"))
	}
	if v := slice(iso, "victim"); v.Throttled != 0 || v.Received == 0 {
		t.Errorf("isolated victim shed traffic: %+v", v)
	}
	// Shared pool: the hog admitted first drains it; the victim starves.
	if v := slice(shared, "victim"); v.Throttled == 0 {
		t.Errorf("shared-pool victim was not starved: %+v", v)
	}
	isoV, sharedV := slice(iso, "victim").Received, slice(shared, "victim").Received
	if sharedV >= isoV {
		t.Errorf("ablation shows no benefit: victim served %d isolated vs %d shared", isoV, sharedV)
	}
}
