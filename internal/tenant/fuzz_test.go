package tenant

import (
	"math/rand"
	"testing"

	"ehdl/internal/obs"
	"ehdl/internal/pktgen"
)

// insertVLAN returns a copy of pkt with an 802.1Q tag at offset 12.
func insertVLAN(pkt []byte, vid uint16) []byte {
	out := append(make([]byte, 4, len(pkt)+4), pkt...)
	tagVLAN(out, vid)
	return out
}

// classifierSeedCorpus is the classifier's malformed-frame seed set:
// the conformance corpus (every structured malformation, boundary
// truncations, byte soup) in both tagged and untagged form, plus the
// tagging mistakes only a multi-tenant device can see — unknown VIDs,
// tags truncated mid-header, and non-IP EtherTypes no steering rule
// claims.
func classifierSeedCorpus(seed int64) [][]byte {
	base := pktgen.Build(pktgen.PacketSpec{
		Flow:     pktgen.Flow{SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: 4242, DstPort: 8080, Proto: 17},
		TotalLen: 64,
	})
	tagged := insertVLAN(base, 100)
	r := rand.New(rand.NewSource(seed))
	var out [][]byte
	out = append(out, base, tagged, insertVLAN(base, 999))
	for _, kind := range pktgen.MalformKinds() {
		for i := 0; i < 2; i++ {
			out = append(out, pktgen.Malform(base, kind, r))
			out = append(out, pktgen.Malform(tagged, kind, r))
		}
	}
	for _, n := range []int{0, 1, 13, 14, 15, 16, 17, 18, 33, 40, len(tagged)} {
		out = append(out, append([]byte(nil), tagged[:n]...))
	}
	arp := append([]byte(nil), base...)
	arp[12], arp[13] = 0x08, 0x06
	out = append(out, arp)
	for i := 0; i < 8; i++ {
		pkt := make([]byte, 40+r.Intn(72))
		r.Read(pkt)
		out = append(out, pkt)
	}
	return out
}

// FuzzTenantClassifier: whatever frame arrives — any malformation, any
// truncation, any tag — the classifier attributes it to exactly one
// place. On a device with no default tenant, unclassifiable frames land
// in the quarantine bucket, counted and steer-traced, never dropped
// silently; on a device with a default tenant, nothing is quarantined
// and the frame is charged to exactly one tenant. In both cases Serve
// succeeds and the device ledger balances.
func FuzzTenantClassifier(f *testing.F) {
	for _, pkt := range classifierSeedCorpus(0x7c1a) {
		f.Add(pkt)
	}

	build := func(withDefault bool) (*Device, *obs.MemSink) {
		tr, sink := memTracer()
		d := NewDevice(DeviceConfig{Seed: 5, trace: tr})
		a := Spec{Name: "a", App: mustAppValue("toy"), Share: 0.4, VLAN: 100}
		b := Spec{Name: "b", App: mustAppValue("toy"), Share: 0.4, VLAN: 200}
		b.Default = withDefault
		for _, sp := range []Spec{a, b} {
			if _, err := d.AdmitTenant(sp); err != nil {
				f.Fatal(err)
			}
		}
		return d, sink
	}
	quarantineDev, qSink := build(false)
	defaultDev, _ := build(true)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			t.Skip("oversized frame")
		}

		// Device without a default tenant: the frame is either steered
		// to a tenant by rule or quarantined with a trace — one or the
		// other, exactly once, and never an error.
		evBefore := len(qSink.Events())
		rep, err := quarantineDev.Serve([][]byte{append([]byte(nil), data...)}, 50e6)
		if err != nil {
			t.Fatalf("serve failed on a malformed frame: %v", err)
		}
		if !rep.Accounted() {
			t.Fatalf("ledger identity broken: %+v", rep)
		}
		var steered uint64
		for _, sl := range rep.PerTenant {
			steered += sl.Steered
		}
		if steered+rep.Quarantined != 1 {
			t.Fatalf("frame attributed %d times (steered %d, quarantined %d)", steered+rep.Quarantined, steered, rep.Quarantined)
		}
		if rep.Quarantined == 1 {
			traced := false
			for _, ev := range qSink.Events()[evBefore:] {
				if ev.Kind == obs.KindQueueSteer && ev.Aux == quarantineBucket {
					traced = true
				}
			}
			if !traced {
				t.Fatal("quarantined frame left no steer trace")
			}
		}

		// Device with a default tenant: nothing is ever quarantined —
		// the default tenant absorbs every stray frame.
		rep, err = defaultDev.Serve([][]byte{append([]byte(nil), data...)}, 50e6)
		if err != nil {
			t.Fatalf("serve failed on a malformed frame: %v", err)
		}
		if !rep.Accounted() {
			t.Fatalf("ledger identity broken: %+v", rep)
		}
		if rep.Quarantined != 0 {
			t.Fatalf("frame quarantined despite a default tenant: %+v", rep)
		}
		steered = 0
		for _, sl := range rep.PerTenant {
			steered += sl.Steered
		}
		if steered != 1 {
			t.Fatalf("frame attributed %d times with a default tenant", steered)
		}
	})
}
