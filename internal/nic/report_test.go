package nic

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"ehdl/internal/ebpf"
	"ehdl/internal/hwsim"
)

// TestReportAdd exercises every aggregation class: plain counter sums
// (traffic, queue, recovery, update, steer-fallback and merge-conflict
// counters), capacity-summed rates, weighted latency means, max-folded
// worst cases and first-non-empty update strings.
// verdicts builds a histogram from a map literal.
func verdicts(m map[ebpf.XDPAction]uint64) hwsim.Verdicts {
	var v hwsim.Verdicts
	for a, n := range m {
		v.Add(a, n)
	}
	return v
}

func TestReportAdd(t *testing.T) {
	a := Report{
		OfferedMpps:  100,
		AchievedMpps: 90,
		Sent:         1000,
		Received:     900,
		Lost:         100,
		AvgLatencyNs: 1000,
		MaxLatencyNs: 5000,
		Flushes:      10,
		Cycles:       4000,
		Actions:      verdicts(map[ebpf.XDPAction]uint64{ebpf.XDPTx: 900}),

		Resilience: hwsim.Resilience{
			QueueOverflows:        3,
			WatchdogTrips:         1,
			Recoveries:            2,
			RecoveryAborted:       5,
			RecoveryBackoffCycles: 512,
			CheckpointsTaken:      4,
		},
		OverflowBursts: 2,

		UpdatesAttempted:  1,
		UpdatesCompleted:  1,
		UpdateStage:       "done",
		MigratedEntries:   64,
		CanariedPackets:   32,
		CanaryDivergences: 0,

		QueueCount:     4,
		PerQueue:       []QueueReport{{Queue: 0, Received: 450}, {Queue: 1, Received: 450}},
		SteerFallbacks: 7,
		MergeConflicts: 0,
	}
	b := Report{
		OfferedMpps:  100,
		AchievedMpps: 80,
		Sent:         500,
		Received:     300,
		Lost:         200,
		AvgLatencyNs: 2000,
		MaxLatencyNs: 4000,
		Flushes:      30,
		Cycles:       8000,
		Actions:      verdicts(map[ebpf.XDPAction]uint64{ebpf.XDPTx: 200, ebpf.XDPDrop: 100}),

		Resilience: hwsim.Resilience{
			QueueOverflows:        1,
			WatchdogTrips:         2,
			Recoveries:            3,
			RecoveryAborted:       7,
			RecoveryBackoffCycles: 1024,
			CheckpointsTaken:      1,
		},
		OverflowBursts: 1,

		UpdatesAttempted:  1,
		UpdatesRolledBack: 1,
		UpdateStage:       "rolled-back",
		UpdateFailure:     "migrate: map full",
		CanariedPackets:   8,
		CanaryDivergences: 1,

		QueueCount:     2,
		PerQueue:       []QueueReport{{Queue: 0, Received: 300}},
		SteerFallbacks: 3,
		MergeConflicts: 2,
	}

	sum := a
	sum.Actions = verdicts(map[ebpf.XDPAction]uint64{ebpf.XDPTx: 900})
	sum.PerQueue = append([]QueueReport(nil), a.PerQueue...)
	sum.Add(b)

	// Traffic and queue counters.
	if sum.Sent != 1500 || sum.Received != 1200 || sum.Lost != 300 {
		t.Errorf("traffic sums: sent %d received %d lost %d", sum.Sent, sum.Received, sum.Lost)
	}
	if sum.QueueOverflows != 4 || sum.OverflowBursts != 3 || sum.WatchdogTrips != 3 {
		t.Errorf("queue counters: %d/%d/%d", sum.QueueOverflows, sum.OverflowBursts, sum.WatchdogTrips)
	}
	// Recovery counters.
	if sum.Recoveries != 5 || sum.RecoveryAborted != 12 || sum.RecoveryBackoffCycles != 1536 || sum.CheckpointsTaken != 5 {
		t.Errorf("recovery counters: %d/%d/%d/%d",
			sum.Recoveries, sum.RecoveryAborted, sum.RecoveryBackoffCycles, sum.CheckpointsTaken)
	}
	// Update counters and first-non-empty strings.
	if sum.UpdatesAttempted != 2 || sum.UpdatesCompleted != 1 || sum.UpdatesRolledBack != 1 {
		t.Errorf("update outcomes: %d/%d/%d", sum.UpdatesAttempted, sum.UpdatesCompleted, sum.UpdatesRolledBack)
	}
	if sum.UpdateStage != "done" {
		t.Errorf("UpdateStage %q, want first non-empty \"done\"", sum.UpdateStage)
	}
	if sum.UpdateFailure != "migrate: map full" {
		t.Errorf("UpdateFailure %q, want carried from second report", sum.UpdateFailure)
	}
	if sum.MigratedEntries != 64 || sum.CanariedPackets != 40 || sum.CanaryDivergences != 1 {
		t.Errorf("migration/canary: %d/%d/%d", sum.MigratedEntries, sum.CanariedPackets, sum.CanaryDivergences)
	}
	// Steer fallback and merge conflict counters.
	if sum.SteerFallbacks != 10 || sum.MergeConflicts != 2 {
		t.Errorf("steer/merge: %d/%d", sum.SteerFallbacks, sum.MergeConflicts)
	}
	// Multi-queue breakdown: QueueCount max-folds (the widest replica
	// set, not a double count of the same replicas across epochs) and
	// PerQueue merges by queue index.
	if sum.QueueCount != 4 || len(sum.PerQueue) != 2 {
		t.Errorf("queue breakdown: count %d, %d entries", sum.QueueCount, len(sum.PerQueue))
	}
	if sum.PerQueue[0].Queue != 0 || sum.PerQueue[0].Received != 750 {
		t.Errorf("queue 0 merged to %+v, want Received 750", sum.PerQueue[0])
	}
	if sum.PerQueue[1].Queue != 1 || sum.PerQueue[1].Received != 450 {
		t.Errorf("queue 1 merged to %+v, want Received 450", sum.PerQueue[1])
	}
	// Rates sum; latency means weight by Received; maxes fold.
	if sum.OfferedMpps != 200 || sum.AchievedMpps != 170 {
		t.Errorf("rates: offered %.0f achieved %.0f", sum.OfferedMpps, sum.AchievedMpps)
	}
	wantAvg := (1000.0*900 + 2000.0*300) / 1200.0
	if sum.AvgLatencyNs != wantAvg {
		t.Errorf("AvgLatencyNs %.2f, want Received-weighted %.2f", sum.AvgLatencyNs, wantAvg)
	}
	if sum.MaxLatencyNs != 5000 {
		t.Errorf("MaxLatencyNs %.0f, want max 5000", sum.MaxLatencyNs)
	}
	// Actions merge.
	if sum.Actions.Count(ebpf.XDPTx) != 1100 || sum.Actions.Count(ebpf.XDPDrop) != 100 {
		t.Errorf("actions merged to %v", sum.Actions)
	}
}

// TestReportAddPerTenant: tenant slices merge by name — the same
// tenant's ledger stays one row across epoch folds and fleet
// aggregation — and every slice counter sums while the latency mean
// stays Received-weighted.
func TestReportAddPerTenant(t *testing.T) {
	a := Report{
		Sent: 100, Received: 90, Lost: 4, Throttled: 3, Quarantined: 2, TenantDownLoss: 1,
		PerTenant: []TenantSlice{
			{Name: "alpha", VLAN: 100, Steered: 60, Admitted: 57, Throttled: 3,
				Sent: 57, Received: 55, Lost: 2, AvgLatencyNs: 100, AchievedMpps: 1,
				Actions: verdicts(map[ebpf.XDPAction]uint64{ebpf.XDPTx: 55})},
			{Name: "beta", VLAN: 200, Steered: 40, Admitted: 40,
				Sent: 43, Received: 35, Lost: 8, AvgLatencyNs: 200},
		},
	}
	b := Report{
		Sent: 50, Received: 40, Lost: 5, Throttled: 5,
		PerTenant: []TenantSlice{
			{Name: "alpha", Steered: 50, Admitted: 45, Throttled: 5,
				Sent: 45, Received: 45, AvgLatencyNs: 300, AchievedMpps: 2,
				Actions: verdicts(map[ebpf.XDPAction]uint64{ebpf.XDPTx: 40, ebpf.XDPDrop: 5, 9: 1})},
			{Name: "gamma", VLAN: 300, Steered: 7, Admitted: 7, Sent: 7, Received: 7},
		},
	}
	sum := a
	sum.PerTenant = append([]TenantSlice(nil), a.PerTenant...)
	sum.PerTenant[0].Actions = verdicts(map[ebpf.XDPAction]uint64{ebpf.XDPTx: 55})
	sum.Add(b)

	if sum.Throttled != 8 || sum.Quarantined != 2 || sum.TenantDownLoss != 1 {
		t.Errorf("tenant loss counters: throttled %d quarantined %d down %d",
			sum.Throttled, sum.Quarantined, sum.TenantDownLoss)
	}
	if len(sum.PerTenant) != 3 {
		t.Fatalf("PerTenant merged to %d rows, want 3 (alpha folded, gamma appended)", len(sum.PerTenant))
	}
	al := sum.PerTenant[0]
	if al.Name != "alpha" || al.Steered != 110 || al.Admitted != 102 || al.Throttled != 8 ||
		al.Sent != 102 || al.Received != 100 || al.Lost != 2 || al.AchievedMpps != 3 {
		t.Errorf("alpha merged to %+v", al)
	}
	wantAvg := (100.0*55 + 300.0*45) / 100.0
	if al.AvgLatencyNs != wantAvg {
		t.Errorf("alpha AvgLatencyNs %.2f, want Received-weighted %.2f", al.AvgLatencyNs, wantAvg)
	}
	if al.Actions.Count(ebpf.XDPTx) != 95 || al.Actions.Count(ebpf.XDPDrop) != 5 {
		t.Errorf("alpha actions merged to %v", al.Actions)
	}
	if sum.PerTenant[2].Name != "gamma" || sum.PerTenant[2].VLAN != 300 {
		t.Errorf("gamma appended as %+v", sum.PerTenant[2])
	}
	// Appended slices are copies: counting into the merged report must
	// not reach back into the source report's histogram.
	sum.PerTenant[0].Actions.Add(ebpf.XDPAction(9), 1)
	sum.PerTenant[2].Actions.Add(ebpf.XDPTx, 1)
	if b.PerTenant[0].Actions.Count(ebpf.XDPAction(9)) != 1 || b.PerTenant[1].Actions.Count(ebpf.XDPTx) != 0 {
		t.Errorf("merge aliased the source histograms: %v, %v", b.PerTenant[0].Actions, b.PerTenant[1].Actions)
	}
}

// TestReportAccounted is the table test for the ledger identity: every
// offered frame lands in exactly one of Received, Lost, Throttled,
// Quarantined or TenantDownLoss, and because the identity is additive
// it survives Add-merges of reports that each individually satisfy it.
func TestReportAccounted(t *testing.T) {
	cases := []struct {
		name string
		r    Report
		want bool
	}{
		{"zero", Report{}, true},
		{"plain shell", Report{Sent: 100, Received: 98, Lost: 2}, true},
		{"tenant ledger", Report{Sent: 100, Received: 80, Lost: 5, Throttled: 10, Quarantined: 3, TenantDownLoss: 2}, true},
		{"lost frame unaccounted", Report{Sent: 100, Received: 98, Lost: 1}, false},
		{"double counted", Report{Sent: 100, Received: 98, Lost: 2, Throttled: 2}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.r.Accounted(); got != tc.want {
				t.Errorf("Accounted() = %v, want %v for %+v", got, tc.want, tc.r)
			}
		})
	}

	// Additivity across merges: fold several accounted epochs from
	// different loss classes and the identity must still hold; fold one
	// unaccounted epoch in and it must break.
	epochs := []Report{
		{Sent: 256, Received: 250, Lost: 6},
		{Sent: 256, Received: 200, Lost: 0, Throttled: 56},
		{Sent: 256, Received: 100, Lost: 12, Throttled: 40, Quarantined: 24, TenantDownLoss: 80},
		{Sent: 0},
	}
	var sum Report
	for i, ep := range epochs {
		if !ep.Accounted() {
			t.Fatalf("epoch %d not individually accounted: %+v", i, ep)
		}
		sum.Add(ep)
		if !sum.Accounted() {
			t.Errorf("ledger identity broken after folding epoch %d: %+v", i, sum)
		}
	}
	if sum.Sent != 768 || sum.Received != 550 || sum.Lost != 18 ||
		sum.Throttled != 96 || sum.Quarantined != 24 || sum.TenantDownLoss != 80 {
		t.Errorf("merged ledger: %+v", sum)
	}
	sum.Add(Report{Sent: 10, Received: 3})
	if sum.Accounted() {
		t.Error("ledger identity survived folding an unaccounted report")
	}
}

// TestReportAddZero: folding a zero Report changes nothing — the
// identity the fleet loop relies on when a device sat out an epoch.
func TestReportAddZero(t *testing.T) {
	r := Report{Sent: 10, Received: 9, Lost: 1, AvgLatencyNs: 100, MaxLatencyNs: 200,
		UpdateStage: "done", QueueCount: 1}
	want := r
	r.Add(Report{})
	if r.Sent != want.Sent || r.Received != want.Received || r.Lost != want.Lost ||
		r.AvgLatencyNs != want.AvgLatencyNs || r.MaxLatencyNs != want.MaxLatencyNs ||
		r.UpdateStage != want.UpdateStage || r.QueueCount != want.QueueCount {
		t.Errorf("adding zero report mutated aggregate: %+v -> %+v", want, r)
	}
	var z Report
	z.Add(want)
	if z.Sent != want.Sent || z.AvgLatencyNs != want.AvgLatencyNs || z.UpdateStage != "done" {
		t.Errorf("zero + r != r: %+v", z)
	}
}

// TestTenantSliceJSON: a tenant row encodes its fields in order, and an
// empty verdict histogram is left out as the map it replaced was under
// omitempty; either way the row decodes back to itself.
func TestTenantSliceJSON(t *testing.T) {
	type fields TenantSlice // encodes every field, "actions" included
	for _, acts := range []hwsim.Verdicts{{}, verdicts(map[ebpf.XDPAction]uint64{ebpf.XDPTx: 5, 7: 1})} {
		s := TenantSlice{Name: "a", VLAN: 100, Steered: 6, Admitted: 6, Sent: 6, Received: 6, AchievedMpps: 1.5, Actions: acts}
		got, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(fields(s))
		if err != nil {
			t.Fatal(err)
		}
		if acts.IsZero() {
			want = bytes.Replace(want, []byte(`,"actions":{}`), nil, 1)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("row encodes as\n%s\nwant\n%s", got, want)
		}
		var back TenantSlice
		if err := json.Unmarshal(got, &back); err != nil || !reflect.DeepEqual(back, s) {
			t.Errorf("%s decodes to %+v (%v)", got, back, err)
		}
	}
}

// TestReportJSONByteStable: the fleet's byte-identical chaos and
// recovery gates hash report JSON, so a report with a populated verdict
// histogram (a Go map) must marshal identically every time —
// encoding/json's sorted map keys are the guarantee this pins.
func TestReportJSONByteStable(t *testing.T) {
	rep := Report{
		Sent: 10, Received: 9, Lost: 1,
		Actions: verdicts(map[ebpf.XDPAction]uint64{
			ebpf.XDPPass: 3, ebpf.XDPDrop: 2, ebpf.XDPTx: 2,
			ebpf.XDPAborted: 1, ebpf.XDPRedirect: 1,
		}),
		PerQueue:  []QueueReport{{Queue: 0, Received: 5}, {Queue: 1, Received: 4}},
		PerTenant: []TenantSlice{{Name: "b", Received: 4}, {Name: "a", Received: 5}},
	}
	first, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		again, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(first) {
			t.Fatalf("marshal %d diverged:\n%s\n%s", i, first, again)
		}
	}
}

// TestTimeline: within a step the reports serve side by side and merge
// by Add, so rates sum; across steps counters sum but every rate — the
// device's five, a queue's and a tenant's AchievedMpps — is the steps'
// rates weighted by the cycles each step served for.
func TestTimeline(t *testing.T) {
	dev := func(mpps float64, cycles uint64, tenant string) Report {
		return Report{
			OfferedMpps: mpps, AchievedMpps: mpps, OfferedGbps: 2 * mpps, AchievedGbps: 2 * mpps, FlushesPerS: mpps,
			Sent: 10, Received: 10, Cycles: cycles, QueueCount: 1,
			PerQueue:  []QueueReport{{Queue: 0, Received: 10, Cycles: cycles, AchievedMpps: mpps}},
			PerTenant: []TenantSlice{{Name: tenant, Sent: 10, Received: 10, Cycles: cycles, AchievedMpps: mpps}},
		}
	}
	var tl Timeline
	tl.Step(dev(50, 100, "a"), dev(50, 100, "b")) // two devices: 100 Mpps for 200 cycles
	tl.Step(dev(20, 300, "a"))                    // one device: 20 Mpps for 300 cycles
	tl.Step()                                     // nothing served: no weight
	rep := tl.Report()

	want := (100.0*200 + 20*300) / 500
	for i, r := range []float64{rep.OfferedMpps, rep.AchievedMpps, rep.OfferedGbps / 2, rep.AchievedGbps / 2, rep.FlushesPerS} {
		if r != want {
			t.Errorf("rate %d = %v, want %v", i, r, want)
		}
	}
	if rep.Sent != 30 || rep.Received != 30 || rep.Cycles != 500 {
		t.Errorf("counters sent %d received %d cycles %d, want 30 30 500", rep.Sent, rep.Received, rep.Cycles)
	}
	if q := rep.PerQueue; len(q) != 1 || q[0].AchievedMpps != want || q[0].Received != 30 {
		t.Errorf("queue rows %+v, want one at %v Mpps", q, want)
	}
	if tn := rep.PerTenant; len(tn) != 2 || tn[0].AchievedMpps != (50.0*100+20*300)/400 || tn[1].AchievedMpps != 50 {
		t.Errorf("tenant rows %+v, want a at %v and b at 50 Mpps", tn, (50.0*100+20*300)/400)
	}
}
