package pktgen

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func wellFormed() []byte {
	return Build(PacketSpec{
		Flow:     Flow{SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: 1000, DstPort: 53, Proto: 17},
		TotalLen: 64,
	})
}

func TestMalformInvariants(t *testing.T) {
	for _, kind := range MalformKinds() {
		rng := rand.New(rand.NewSource(3))
		for trial := 0; trial < 50; trial++ {
			pkt := wellFormed()
			orig := append([]byte(nil), pkt...)
			out := Malform(pkt, kind, rng)
			if !bytes.Equal(pkt, orig) {
				t.Fatalf("%s: Malform modified its input", kind)
			}
			switch kind {
			case MalformTruncateEth:
				if len(out) >= EthHeaderLen {
					t.Fatalf("%s: %d bytes, want a cut inside the Ethernet header", kind, len(out))
				}
			case MalformTruncateIP:
				if len(out) >= EthHeaderLen+IPv4HeaderLen {
					t.Fatalf("%s: %d bytes, want a cut inside the IPv4 header", kind, len(out))
				}
			case MalformTruncateL4:
				if len(out) >= EthHeaderLen+IPv4HeaderLen+udpHeaderLen {
					t.Fatalf("%s: %d bytes, want a cut inside the transport header", kind, len(out))
				}
			case MalformBogusIPLen:
				if len(out) != len(orig) {
					t.Fatalf("%s: length changed %d -> %d", kind, len(orig), len(out))
				}
				claimed := int(out[EthHeaderLen+2])<<8 | int(out[EthHeaderLen+3])
				if claimed == len(out)-EthHeaderLen {
					t.Fatalf("%s: total-length field still agrees with the frame", kind)
				}
			case MalformZeroLength:
				if len(out) != 0 {
					t.Fatalf("%s: %d bytes, want zero", kind, len(out))
				}
			case MalformOversize:
				if len(out) != oversizeFrameLen {
					t.Fatalf("%s: %d bytes, want %d", kind, len(out), oversizeFrameLen)
				}
				if !bytes.Equal(out[:len(orig)], orig) {
					t.Fatalf("%s: jumbo frame does not carry the original prefix", kind)
				}
			}
		}
	}
}

func TestMalformDeterministic(t *testing.T) {
	for _, kind := range MalformKinds() {
		a := rand.New(rand.NewSource(11))
		b := rand.New(rand.NewSource(11))
		for trial := 0; trial < 20; trial++ {
			pa := Malform(wellFormed(), kind, a)
			pb := Malform(wellFormed(), kind, b)
			if !bytes.Equal(pa, pb) {
				t.Fatalf("%s: same seed produced different damage on trial %d", kind, trial)
			}
		}
	}
}

func TestMalformTinyInputs(t *testing.T) {
	// Damage applied to already-degenerate frames must stay in bounds.
	rng := rand.New(rand.NewSource(5))
	for _, kind := range MalformKinds() {
		for _, n := range []int{0, 1, 4, EthHeaderLen} {
			out := Malform(make([]byte, n), kind, rng)
			if kind == MalformOversize && len(out) != oversizeFrameLen {
				t.Fatalf("%s on %dB frame: %d bytes", kind, n, len(out))
			}
			if kind != MalformOversize && len(out) > n {
				t.Fatalf("%s on %dB frame grew it to %d bytes", kind, n, len(out))
			}
		}
	}
}

func TestMalformKindNames(t *testing.T) {
	kinds := MalformKinds()
	if len(kinds) != int(NumMalformKinds) {
		t.Fatalf("MalformKinds returned %d of %d", len(kinds), NumMalformKinds)
	}
	seen := map[string]bool{}
	for _, kind := range kinds {
		name := kind.String()
		if name == "" || strings.Contains(name, "?") || seen[name] {
			t.Errorf("kind %d has a bad or duplicate name %q", kind, name)
		}
		seen[name] = true
	}
	if !strings.Contains(MalformKind(99).String(), "?") {
		t.Error("out-of-range kind should stringify as unknown")
	}
}
