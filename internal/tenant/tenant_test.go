package tenant

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/faults"
	"ehdl/internal/hdl"
	"ehdl/internal/hwsim"
	"ehdl/internal/nic"
	"ehdl/internal/obs"
	"ehdl/internal/protect"
)

func mustApp(t testing.TB, name string) *apps.App {
	t.Helper()
	a, ok := apps.ByName(name)
	if !ok {
		t.Fatalf("unknown app %q", name)
	}
	return a
}

func memTracer() (*obs.Tracer, *obs.MemSink) {
	sink := obs.NewMemSink()
	return obs.NewTracer(0, sink), sink
}

// TestAdmissionGateEnforcesBudget registers identically priced tenants
// until the gate rejects: the rejection must be the typed
// *AdmissionError, the admitted set's summed hdl estimate (plus the
// Corundum shell) must stay within the configured utilisation band, and
// the rejected design's would-be utilisation must exceed it.
func TestAdmissionGateEnforcesBudget(t *testing.T) {
	const band = 40.0
	tr, sink := memTracer()
	reg := obs.NewRegistry()
	d := NewDevice(DeviceConfig{UtilisationBandPct: band, trace: tr, metrics: reg})

	var admitted []*Tenant
	var rejection *AdmissionError
	for i := 0; i < 24; i++ {
		// Firewall under ECC: the most expensive admission profile
		// (the pipeline plus its protection codecs).
		tn, err := d.AdmitTenant(Spec{
			Name:  fmt.Sprintf("fw%d", i),
			App:   mustApp(t, "firewall"),
			Share: 0.04,
			VLAN:  uint16(100 + i),
			Shell: nic.ShellConfig{Sim: hwsim.Config{Protection: protect.LevelECC}},
		})
		if err != nil {
			if !errors.As(err, &rejection) {
				t.Fatalf("admission failure is not an *AdmissionError: %v", err)
			}
			break
		}
		admitted = append(admitted, tn)
	}
	if len(admitted) == 0 {
		t.Fatal("no tenant fit the band — gate untestable")
	}
	if rejection == nil {
		t.Fatal("the gate never rejected; band not enforced")
	}

	// The admitted set provably fits: shell + sum of charged estimates
	// equals the device's book, and its utilisation is within the band.
	sum := hdl.CorundumShell()
	for _, tn := range admitted {
		sum = sum.Add(tn.Est)
	}
	if sum != d.Used() {
		t.Errorf("resource book %+v != shell + admitted estimates %+v", d.Used(), sum)
	}
	if util := d.Utilisation(); util > band {
		t.Errorf("admitted set at %.2f%% exceeds the %.0f%% band", util, band)
	}
	if rejection.utilPct <= band || rejection.bandPct != band {
		t.Errorf("rejection says %.2f%% vs band %.2f%%, want would-be util above %.0f",
			rejection.utilPct, rejection.bandPct, band)
	}
	if rejection.used != d.Used() {
		t.Errorf("rejection used %+v != device book %+v", rejection.used, d.Used())
	}

	// The gate is observable: admit/reject events and tenant.* metrics.
	var admits, rejects int
	for _, ev := range sink.Events() {
		switch ev.Kind {
		case obs.KindTenantAdmit:
			admits++
		case obs.KindTenantReject:
			rejects++
		}
	}
	if admits != len(admitted) || rejects != 1 {
		t.Errorf("events: %d admits, %d rejects; want %d/1", admits, rejects, len(admitted))
	}
	if n, _ := reg.CounterValue(metricAdmitted); n != uint64(len(admitted)) {
		t.Errorf("%s = %d, want %d", metricAdmitted, n, len(admitted))
	}
	if n, _ := reg.CounterValue(metricRejected); n != 1 {
		t.Errorf("%s = %d, want 1", metricRejected, n)
	}

	// A later, cheaper candidate still fits: rejection is per-design,
	// not a latch.
	if _, err := d.AdmitTenant(Spec{Name: "small", App: mustApp(t, "toy"), Share: 0.04, VLAN: 4000}); err != nil {
		t.Errorf("cheap tenant rejected after an expensive one bounced: %v", err)
	}
}

// TestAdmitTenantSpecValidation: malformed specifications fail with
// ordinary errors (not budget rejections) and leave the device book
// untouched.
func TestAdmitTenantSpecValidation(t *testing.T) {
	d := NewDevice(DeviceConfig{})
	if _, err := d.AdmitTenant(Spec{Name: "a", App: mustApp(t, "toy"), Share: 0.5, VLAN: 100, Default: true}); err != nil {
		t.Fatal(err)
	}
	used := d.Used()
	cases := []struct {
		name string
		sp   Spec
	}{
		{"empty name", Spec{App: mustApp(t, "toy"), Share: 0.1}},
		{"duplicate name", Spec{Name: "a", App: mustApp(t, "toy"), Share: 0.1, VLAN: 200}},
		{"nil app", Spec{Name: "b", Share: 0.1, VLAN: 200}},
		{"zero share", Spec{Name: "b", App: mustApp(t, "toy"), VLAN: 200}},
		{"share above one", Spec{Name: "b", App: mustApp(t, "toy"), Share: 1.5, VLAN: 200}},
		{"shares oversubscribed", Spec{Name: "b", App: mustApp(t, "toy"), Share: 0.6, VLAN: 200}},
		{"duplicate vlan", Spec{Name: "b", App: mustApp(t, "toy"), Share: 0.1, VLAN: 100}},
		{"vlan out of range", Spec{Name: "b", App: mustApp(t, "toy"), Share: 0.1, VLAN: 4095}},
		{"second default", Spec{Name: "b", App: mustApp(t, "toy"), Share: 0.1, VLAN: 200, Default: true}},
	}
	for _, tc := range cases {
		_, err := d.AdmitTenant(tc.sp)
		if err == nil {
			t.Errorf("%s: admitted", tc.name)
		}
		var ae *AdmissionError
		if errors.As(err, &ae) {
			t.Errorf("%s: spec mistake reported as a budget rejection: %v", tc.name, err)
		}
	}
	if d.Used() != used {
		t.Errorf("failed admissions changed the resource book: %+v -> %+v", used, d.Used())
	}
}

// TestTenantMapNamespaces: tenants hold disjoint map namespaces by
// construction — distinct sets, and traffic or host writes through one
// tenant never appear in another's state, even for two tenants running
// the same program.
func TestTenantMapNamespaces(t *testing.T) {
	d := NewDevice(DeviceConfig{Seed: 7})
	a, err := d.AdmitTenant(Spec{Name: "a", App: mustApp(t, "toy"), Share: 0.5, VLAN: 100})
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.AdmitTenant(Spec{Name: "b", App: mustApp(t, "toy"), Share: 0.5, VLAN: 200})
	if err != nil {
		t.Fatal(err)
	}
	if a.sh.Maps() == b.sh.Maps() {
		t.Fatal("tenants share a map set")
	}
	before := b.sh.Maps().Snapshot()

	// Serve traffic only for tenant a: its counters move, b's stay put.
	mux := NewTrafficMux([]Spec{a.Spec}, 7)
	rep, err := d.Serve(mux.Batch(64), 50e6)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Accounted() {
		t.Errorf("ledger identity broken: %+v", rep)
	}
	if rep.PerTenant[0].Received == 0 {
		t.Fatal("tenant a served nothing; test is vacuous")
	}
	if rep.PerTenant[1].Steered != 0 || rep.PerTenant[1].Received != 0 {
		t.Errorf("tenant b saw traffic addressed to a: %+v", rep.PerTenant[1])
	}
	if !before.Equal(b.sh.Maps().Snapshot()) {
		t.Error("idle tenant b's map state changed while a served traffic")
	}
}

// TestTenantDeathContained: a tenant whose pipeline exhausts its
// recovery budget dies alone — Serve keeps succeeding, the dead
// tenant's frames are exactly accounted as TenantDownLoss (the unserved
// remainder at death plus every later arrival), and the surviving
// tenant keeps serving.
func TestTenantDeathContained(t *testing.T) {
	const seed = 0x5ead
	d := NewDevice(DeviceConfig{Seed: seed, EpochPackets: 128})
	_, err := d.AdmitTenant(Spec{
		Name: "flaky", App: mustApp(t, "toy"), Share: 0.5, VLAN: 100,
		Shell: nic.ShellConfig{
			// Parity detects but cannot correct, so every map upset is a
			// drain-and-restart; MaxRecoveries 1 makes the second one
			// between clean scrubs terminal.
			Faults: faults.Single(faults.SEUMapEntry, 0.02, seed),
			Sim: hwsim.Config{
				Protection:            protect.LevelParity,
				ScrubCyclesPerWord:    64,
				MaxRecoveries:         1,
				RecoveryBackoffCycles: 8,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	bSpec := Spec{Name: "steady", App: mustApp(t, "firewall"), Share: 0.5, VLAN: 200}
	if _, err := d.AdmitTenant(bSpec); err != nil {
		t.Fatal(err)
	}

	mux := NewTrafficMux([]Spec{d.tenants[0].Spec, bSpec}, seed)
	rep, err := d.RunLoad(mux.Next, 1024, 50e6)
	if err != nil {
		t.Fatalf("device-level error from a tenant-local death: %v", err)
	}
	flaky := d.byName["flaky"]
	if !flaky.Dead() {
		t.Skip("fault campaign did not kill the tenant at this seed; containment untestable")
	}
	if flaky.DeathCause() == "" {
		t.Error("dead tenant carries no cause")
	}
	if !rep.Accounted() {
		t.Errorf("ledger identity broken after a death: %+v", rep)
	}
	if rep.TenantDownLoss == 0 {
		t.Error("tenant died but no TenantDownLoss accounted")
	}
	var fl, st nic.TenantSlice
	for _, sl := range rep.PerTenant {
		switch sl.Name {
		case "flaky":
			fl = sl
		case "steady":
			st = sl
		}
	}
	if !fl.Accounted() || !st.Accounted() {
		t.Errorf("per-tenant ledgers broken: flaky %+v steady %+v", fl, st)
	}
	if fl.DownLoss == 0 || fl.DownLoss != rep.TenantDownLoss {
		t.Errorf("death loss misattributed: flaky.DownLoss %d, device %d", fl.DownLoss, rep.TenantDownLoss)
	}
	if st.DownLoss != 0 {
		t.Errorf("surviving tenant charged death loss: %+v", st)
	}
	if st.Received == 0 || st.Received != st.Sent-st.Lost {
		t.Errorf("surviving tenant stopped serving: %+v", st)
	}
	// The epoch the tenant died in still books its faults and recoveries:
	// the slice and the device read what the engines counted.
	life := flaky.sh.Stats()
	if fl.FaultsInjected != life.FaultsInjected || fl.Recoveries != life.Recoveries || fl.WatchdogTrips != life.WatchdogTrips {
		t.Errorf("dead tenant's slice: faults %d recoveries %d watchdog %d, its engine counted %d/%d/%d",
			fl.FaultsInjected, fl.Recoveries, fl.WatchdogTrips, life.FaultsInjected, life.Recoveries, life.WatchdogTrips)
	}
	if fl.MalformedSent != flaky.sh.Injector().Counters().ByClass[faults.MalformedTraffic] {
		t.Errorf("dead tenant's slice: malformed sent %d", fl.MalformedSent)
	}
	devLife := life.Resilience
	devLife.Add(d.byName["steady"].sh.Stats().Resilience)
	if rep.Resilience != devLife {
		t.Errorf("device report's fault and recovery counters %+v, the engines counted %+v", rep.Resilience, devLife)
	}
}

// TestRunLoadFoldsEpochsInTime: epochs are sequential, so cutting the
// same arrivals into more epochs must not multiply a rate. The same 2048
// arrivals run as one epoch and as sixteen of 128 frames: each tenant's
// rate reads the same both ways and equals its frames over its serving
// time, and the device is offered what the load offered.
func TestRunLoadFoldsEpochsInTime(t *testing.T) {
	const clock = 250e6 // nic.ShellConfig's default
	specs := []Spec{
		{Name: "a", App: mustApp(t, "toy"), Share: 0.5, VLAN: 100},
		{Name: "b", App: mustApp(t, "firewall"), Share: 0.5, VLAN: 200},
	}
	var rates [2][]float64
	for run, epoch := range []int{2048, 128} {
		d := NewDevice(DeviceConfig{Seed: 5, EpochPackets: epoch})
		for _, sp := range specs {
			if _, err := d.AdmitTenant(sp); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := d.RunLoad(NewTrafficMux(specs, 5).Next, 2048, 50e6)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(rep.OfferedMpps-50) > 1e-9 {
			t.Errorf("%d-frame epochs: device offered %.2f Mpps, want 50", epoch, rep.OfferedMpps)
		}
		for _, sl := range rep.PerTenant {
			want := float64(sl.Received) / (float64(sl.Cycles) / clock) / 1e6
			if sl.Received == 0 || math.Abs(sl.AchievedMpps-want) > 1e-9*want {
				t.Errorf("%d-frame epochs: tenant %s reads %.2f Mpps, %d frames over %d cycles is %.2f",
					epoch, sl.Name, sl.AchievedMpps, sl.Received, sl.Cycles, want)
			}
			rates[run] = append(rates[run], sl.AchievedMpps)
		}
	}
	for i := range rates[0] {
		if one, many := rates[0][i], rates[1][i]; math.Abs(many-one) > 0.05*one {
			t.Errorf("tenant %s: %.2f Mpps as one epoch, %.2f as sixteen", specs[i].Name, one, many)
		}
	}
}

// TestServeLeavesFramesUntouched pins what lets Serve hand the admitted
// sub-batches to the tenant shells without copying every pulled frame:
// nothing below writes into one. A single epoch runs every tenant under
// malformed-traffic and overflow-burst faults (damaged frames, and
// extras that recycle the sub-batch); the classifier's batch and every tenant's sub-batch —
// the untagged default tenant's aliases the batch, a VLAN tenant's is
// the stripped copies — must read back byte for byte afterwards.
func TestServeLeavesFramesUntouched(t *testing.T) {
	const seed = 0x5afe
	d := NewDevice(DeviceConfig{
		Seed:  seed,
		Chaos: faults.Config{Seed: seed, MalformRate: 0.2, OverflowRate: 0.02, OverflowBurstLen: 32},
	})
	toy := mustApp(t, "toy")
	specs := []Spec{
		{Name: "tagged-toy", App: toy, Share: 0.4, VLAN: 100},
		{Name: "tagged", App: mustApp(t, "firewall"), Share: 0.3, VLAN: 200},
		{Name: "untagged", App: toy, Share: 0.3, Default: true},
	}
	for _, sp := range specs {
		if _, err := d.AdmitTenant(sp); err != nil {
			t.Fatal(err)
		}
	}
	batch := NewTrafficMux(specs, seed).Batch(512)
	sub, quarantined := d.classify(batch)
	clone := func(frames [][]byte) [][]byte {
		out := make([][]byte, len(frames))
		for i, f := range frames {
			out[i] = append([]byte(nil), f...)
		}
		return out
	}
	pristine := [][][]byte{clone(batch)}
	for _, frames := range sub {
		pristine = append(pristine, clone(frames))
	}

	rep := d.serve(sub, quarantined, 50e6)
	if rep.MalformedSent == 0 || rep.Sent <= uint64(len(batch)) {
		t.Fatalf("epoch missed a path that handles pulled frames: %d malformed, %d sent of %d arrivals",
			rep.MalformedSent, rep.Sent, len(batch))
	}
	for k, frames := range append([][][]byte{batch}, sub...) {
		for i := range frames {
			if !bytes.Equal(frames[i], pristine[k][i]) {
				t.Fatalf("frame %d of batch %d (0: the classifier's, then per tenant) was written to while being served", i, k)
			}
		}
	}
}

// TestServeReservesOneBatch pins what the strip arena may not break:
// Serve reads the caller's batch and leaves it as it arrived, so the
// same tagged batch served again steers every frame to the same tenant
// (a strip in place would hand the second pass untagged frames), and the
// mux builds the same bytes into a caller's arena as into slices of
// their own.
func TestServeReservesOneBatch(t *testing.T) {
	specs := []Spec{
		{Name: "a", App: mustApp(t, "toy"), Share: 0.5, VLAN: 100},
		{Name: "b", App: mustApp(t, "firewall"), Share: 0.3, VLAN: 200},
		{Name: "c", App: mustApp(t, "toy"), Share: 0.2, Default: true},
	}
	d := NewDevice(DeviceConfig{Seed: 3})
	for _, sp := range specs {
		if _, err := d.AdmitTenant(sp); err != nil {
			t.Fatal(err)
		}
	}
	batch := NewTrafficMux(specs, 3).Batch(300)
	var arena []byte
	inArena := NewTrafficMux(specs, 3)
	for i, want := range batch {
		var pkt []byte
		arena, pkt = inArena.AppendNext(arena)
		if !bytes.Equal(pkt, want) {
			t.Fatalf("arrival %d built into an arena reads %x, on its own %x", i, pkt, want)
		}
	}
	pristine := make([][]byte, len(batch))
	for i, pkt := range batch {
		pristine[i] = append([]byte(nil), pkt...)
	}
	var steered [2][]uint64
	for pass := range steered {
		rep, err := d.Serve(batch, 50e6)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Accounted() {
			t.Fatalf("pass %d: ledger does not balance: %+v", pass, rep)
		}
		for _, sl := range rep.PerTenant {
			steered[pass] = append(steered[pass], sl.Steered)
		}
		for i := range batch {
			if !bytes.Equal(batch[i], pristine[i]) {
				t.Fatalf("pass %d wrote into the caller's frame %d", pass, i)
			}
		}
	}
	if fmt.Sprint(steered[0]) != fmt.Sprint(steered[1]) || steered[0][0] == 0 || steered[0][1] == 0 {
		t.Errorf("the same batch steered %v, then %v", steered[0], steered[1])
	}
}
