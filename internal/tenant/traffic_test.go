package tenant

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"strings"
	"testing"

	"ehdl/internal/nic"
)

const goldenMuxPath = "testdata/mux.golden"

// muxDigest hashes an arrival sequence, each frame behind its length.
func muxDigest(frames [][]byte) string {
	h := sha256.New()
	var n [4]byte
	for _, f := range frames {
		binary.BigEndian.PutUint32(n[:], uint32(len(f)))
		h.Write(n[:])
		h.Write(f)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// muxLists are the spec lists whose mux streams are pinned: the
// benchmark's fleet_tenants list, and one whose last tenant is
// untagged (VLAN 0 takes the generator's frame as it is).
var muxLists = []string{"firewall:0.4,router:0.3,dnat:0.3", "toy:0.5,leakybucket:0.5/untagged"}

func parseMuxList(t *testing.T, list string) []Spec {
	t.Helper()
	list, untagged := strings.CutSuffix(list, "/untagged")
	specs, err := ParseSpecList(list, nic.ShellConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if untagged {
		specs[len(specs)-1].VLAN = 0
	}
	return specs
}

// TestGoldenMuxStreams pins the SHA-256 of Batch(4096) of the mux over
// each of muxLists at seeds 1 and 7, the arrival stream every tenant
// fleet serves. Delete the file and run the test to re-record (it
// fails once by design) — only for an intended change of the traffic.
func TestGoldenMuxStreams(t *testing.T) {
	var got strings.Builder
	for _, list := range muxLists {
		specs := parseMuxList(t, list)
		for _, seed := range []int64{1, 7} {
			fmt.Fprintf(&got, "%s/seed%d %s\n", list, seed, muxDigest(NewTrafficMux(specs, seed).Batch(4096)))
		}
	}
	raw, err := os.ReadFile(goldenMuxPath)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenMuxPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing: recorded, review and re-run", goldenMuxPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != got.String() {
		t.Errorf("mux streams moved:\n got %s\nwant %s", got.String(), raw)
	}
}

// TestMuxBatchMatchesNext: Batch, Next and AppendNext into one arena
// give the same arrivals byte for byte, each frame capacity clipped.
func TestMuxBatchMatchesNext(t *testing.T) {
	for _, list := range muxLists {
		specs := parseMuxList(t, list)
		batch := NewTrafficMux(specs, 3).Batch(1000)
		next, appender := NewTrafficMux(specs, 3), NewTrafficMux(specs, 3)
		var arena []byte
		for i, pkt := range batch {
			if cap(pkt) != len(pkt) {
				t.Fatalf("%s frame %d: capacity %d past its length %d", list, i, cap(pkt), len(pkt))
			}
			if got := next.Next(); string(got) != string(pkt) {
				t.Fatalf("%s frame %d: Next differs from Batch", list, i)
			}
			var got []byte
			arena, got = appender.AppendNext(arena)
			if string(got) != string(pkt) {
				t.Fatalf("%s frame %d: AppendNext differs from Batch", list, i)
			}
		}
	}
}
