package tenant

import (
	"testing"

	"ehdl/internal/hwsim"
	"ehdl/internal/nic"
	"ehdl/internal/obs"
	"ehdl/internal/protect"
)

// TestTenantEventCoverage owns the tenant event classes that
// conformance's TestEventClassCoverage exempts: every tenant kind —
// admit, reject, throttle — must be emitted by a real device with its
// documented payload, and the matching tenant.* metric series must
// move. (The quarantine reuse of KindQueueSteer is covered by
// FuzzTenantClassifier's seed corpus.)
func TestTenantEventCoverage(t *testing.T) {
	tr, sink := memTracer()
	reg := obs.NewRegistry()
	d := NewDevice(DeviceConfig{
		UtilisationBandPct: 18, // one ECC firewall fits, a second does not
		EpochBudget:        16,
		trace:              tr,
		metrics:            reg,
	})
	ecc := nic.ShellConfig{Sim: hwsim.Config{Protection: protect.LevelECC}}
	tn, err := d.AdmitTenant(Spec{
		Name: "a", App: mustApp(t, "firewall"), Share: 0.9, VLAN: 100,
		Shell: ecc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AdmitTenant(Spec{
		Name: "b", App: mustApp(t, "firewall"), Share: 0.1, VLAN: 200,
		Shell: ecc,
	}); err == nil {
		t.Fatal("second firewall fit an 18% band; reject event untestable")
	}

	// Offer twice the bucket depth in one epoch so the policer sheds.
	mux := NewTrafficMux([]Spec{tn.Spec}, 3)
	rep, err := d.Serve(mux.Batch(64), 50e6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Throttled == 0 {
		t.Fatal("policer shed nothing; throttle event untestable")
	}
	if !rep.Accounted() {
		t.Errorf("ledger identity broken: %+v", rep)
	}

	seen := map[obs.Kind]obs.Event{}
	for _, ev := range sink.Events() {
		if _, ok := seen[ev.Kind]; !ok {
			seen[ev.Kind] = ev
		}
	}
	if ev, ok := seen[obs.KindTenantAdmit]; !ok {
		t.Error("no tenant_admit event")
	} else if ev.Aux != uint64(tn.id) || ev.Aux2 == 0 {
		t.Errorf("tenant_admit payload: Aux %d (want tenant %d), Aux2 %d (want util tenths)", ev.Aux, tn.id, ev.Aux2)
	}
	if ev, ok := seen[obs.KindTenantReject]; !ok {
		t.Error("no tenant_reject event")
	} else if ev.Aux <= ev.Aux2 || ev.Aux2 != 180 {
		t.Errorf("tenant_reject payload: would-be util %d tenths must exceed band %d tenths (want 180)", ev.Aux, ev.Aux2)
	}
	if ev, ok := seen[obs.KindTenantThrottle]; !ok {
		t.Error("no tenant_throttle event")
	} else if ev.Aux != uint64(tn.id) || ev.Aux2 != rep.Throttled {
		t.Errorf("tenant_throttle payload: Aux %d Aux2 %d, want tenant %d shed %d", ev.Aux, ev.Aux2, tn.id, rep.Throttled)
	}

	for name, want := range map[string]uint64{
		metricAdmitted:  1,
		metricRejected:  1,
		metricThrottled: rep.Throttled,
		metricSteered:   64,
		metricDelivered: rep.Received,
		metricLost:      rep.Lost,
	} {
		if got, _ := reg.CounterValue(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
