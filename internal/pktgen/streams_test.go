package pktgen_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"strings"
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/ebpf"
	"ehdl/internal/pktgen"
)

const goldenStreamsPath = "testdata/streams.golden"

// streamFrames is the length of every pinned stream.
const streamFrames = 4096

// digest hashes a frame sequence, each frame behind its length, so a
// byte moving across a frame boundary changes the hash too.
func digest(frames [][]byte) string {
	h := sha256.New()
	var n [4]byte
	for _, f := range frames {
		binary.BigEndian.PutUint32(n[:], uint32(len(f)))
		h.Write(n[:])
		h.Write(f)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

type streamCase struct {
	label string
	cfg   pktgen.GeneratorConfig
}

// streamCases are the generator configurations whose streams are
// pinned: every bundled app's own traffic at seeds 1 and 7, the three
// shell set-ups of the benchmark (firewall uniform over 10 000 flows,
// toy uniform over 1 024, leakybucket Zipf over 50 000, all 64-byte),
// then the corners a template must get right: TCP, a protocol with no
// ports, a length below the header minimum, a full MTU frame and flow
// sets large enough that the source port wraps at 60 000.
func streamCases() []streamCase {
	var cases []streamCase
	for _, name := range []string{"firewall", "router", "tunnel", "dnat", "suricata", "toy", "leakybucket", "loadbalancer"} {
		app, _ := apps.ByName(name)
		for _, seed := range []int64{1, 7} {
			cfg := app.Traffic
			cfg.Seed = seed
			cases = append(cases, streamCase{fmt.Sprintf("%s/seed%d", name, seed), cfg})
		}
	}
	bench := []struct {
		app   string
		flows int
		dist  pktgen.Distribution
	}{{"firewall", 10000, pktgen.Uniform}, {"toy", 1024, pktgen.Uniform}, {"leakybucket", 50000, pktgen.Zipf}}
	for _, b := range bench {
		app, _ := apps.ByName(b.app)
		for _, seed := range []int64{1, 7} {
			cfg := app.Traffic
			cfg.Flows, cfg.Distribution, cfg.PacketLen, cfg.Seed = b.flows, b.dist, 64, seed
			cases = append(cases, streamCase{fmt.Sprintf("bench-%s/seed%d", b.app, seed), cfg})
		}
	}
	type c = streamCase
	type g = pktgen.GeneratorConfig
	return append(cases,
		c{"tcp", g{Flows: 1000, Proto: ebpf.IPProtoTCP, PacketLen: 128, Seed: 3}},
		c{"tcp-zipf", g{Flows: 5000, Distribution: pktgen.Zipf, Proto: ebpf.IPProtoTCP, Seed: 4}},
		c{"ipip", g{Flows: 100, Proto: ebpf.IPProtoIPIP, Seed: 5}},
		c{"len20", g{Flows: 100, PacketLen: 20, Seed: 6}},
		c{"len20-tcp", g{Flows: 100, PacketLen: 20, Proto: ebpf.IPProtoTCP, Seed: 6}},
		c{"len1514", g{Flows: 100, PacketLen: 1514, Seed: 8}},
		c{"flows60001", g{Flows: 60001, Seed: 9}},
		c{"flows60001-zipf", g{Flows: 60001, Distribution: pktgen.Zipf, Seed: 9}},
		c{"flows200000", g{Flows: 200000, Seed: 10}},
		c{"defaults", g{}})
}

// TestGoldenStreams pins the bytes of every generated stream: the
// SHA-256 of Batch(4096) for each of streamCases and of the first 4 096
// frames of the CAIDA and MAWI traces. How a frame is built may change;
// what is built may not — every engine, golden and bench figure
// downstream reads these bytes. Delete the file and run the test to
// re-record (it fails once by design) — only for an intended change of
// the traffic.
func TestGoldenStreams(t *testing.T) {
	var got strings.Builder
	for _, c := range streamCases() {
		fmt.Fprintf(&got, "%s %s\n", c.label, digest(pktgen.NewGenerator(c.cfg).Batch(streamFrames)))
	}
	for _, p := range []pktgen.TraceProfile{pktgen.CAIDAProfile(), pktgen.MAWIProfile()} {
		tr := pktgen.NewTrace(p)
		frames := make([][]byte, streamFrames)
		for i := range frames {
			frames[i] = tr.Next()
		}
		fmt.Fprintf(&got, "trace/%s %s\n", strings.Fields(p.Name)[0], digest(frames))
	}
	raw, err := os.ReadFile(goldenStreamsPath)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenStreamsPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing: recorded, review and re-run", goldenStreamsPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	want, have := strings.Split(string(raw), "\n"), strings.Split(got.String(), "\n")
	for i := 0; i < len(want) && i < len(have); i++ {
		if want[i] != have[i] {
			t.Errorf("got %q, recorded %q", have[i], want[i])
		}
	}
	if len(have) != len(want) {
		t.Fatalf("%d lines, recorded %d", len(have), len(want))
	}
}

// TestPropertyFramesRebuild checks every frame of every pinned stream
// two ways: it is byte for byte the reference builder's frame for the
// flow ParseFlow reads back from it, and its IPv4 checksum holds. Next,
// AppendNext into one arena and Batch must yield the same stream, each
// frame capacity clipped. The traces' frames are checked the same way.
func TestPropertyFramesRebuild(t *testing.T) {
	check := func(label string, i int, pkt []byte, totalLen int) {
		t.Helper()
		flow, err := pktgen.ParseFlow(pkt)
		if err != nil {
			t.Fatalf("%s frame %d: %v", label, i, err)
		}
		if ref := pktgen.Build(pktgen.PacketSpec{Flow: flow, TotalLen: totalLen}); string(ref) != string(pkt) {
			t.Fatalf("%s frame %d differs from Build(%+v):\n got %x\nwant %x", label, i, flow, pkt, ref)
		}
		if !pktgen.VerifyIPChecksum(pkt) {
			t.Fatalf("%s frame %d: IPv4 checksum does not hold", label, i)
		}
	}
	for _, c := range streamCases() {
		batch := pktgen.NewGenerator(c.cfg).Batch(streamFrames)
		next := pktgen.NewGenerator(c.cfg)
		appender := pktgen.NewGenerator(c.cfg)
		wantLen := c.cfg.PacketLen
		if wantLen == 0 {
			wantLen = 64
		}
		var arena []byte
		for i, pkt := range batch {
			check(c.label, i, pkt, wantLen)
			if cap(pkt) != len(pkt) {
				t.Fatalf("%s frame %d: capacity %d past its length %d", c.label, i, cap(pkt), len(pkt))
			}
			if got := next.Next(); string(got) != string(pkt) {
				t.Fatalf("%s frame %d: Next differs from Batch", c.label, i)
			}
			var got []byte
			arena, got = appender.AppendNext(arena)
			if string(got) != string(pkt) || cap(got) != len(got) {
				t.Fatalf("%s frame %d: AppendNext differs from Batch (cap %d, len %d)", c.label, i, cap(got), len(got))
			}
		}
	}
	for _, p := range []pktgen.TraceProfile{pktgen.CAIDAProfile(), pktgen.MAWIProfile()} {
		tr := pktgen.NewTrace(p)
		for i := 0; i < streamFrames; i++ {
			pkt := tr.Next()
			check(p.Name, i, pkt, len(pkt))
		}
	}
}
