package rss

import (
	"bytes"
	"math/rand"
	"testing"

	"ehdl/internal/pktgen"
)

// FuzzRSSDispatch feeds arbitrary and malformed frames through the
// Toeplitz hasher and the dispatcher and checks the safety contract:
// no panic on any input, a stable hash for identical bytes, the
// malformed fallback always landing on queue 0, and — the invariant
// conformance rests on — a frame classifying to the same queue every
// time it is seen.
func FuzzRSSDispatch(f *testing.F) {
	// Seed with well-formed generator traffic plus every malformation
	// class applied to it, the corpus the chaos campaign uses.
	gen := pktgen.NewGenerator(pktgen.GeneratorConfig{Flows: 16, PacketLen: 64, Seed: 9})
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 8; i++ {
		pkt := gen.Next()
		f.Add(pkt)
		for _, kind := range pktgen.MalformKinds() {
			f.Add(pktgen.Malform(pkt, kind, rng))
		}
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 2*len(defaultKey)))

	h, err := NewHasher(nil)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, pkt []byte) {
		d, err := NewDispatcher(DispatcherConfig{Queues: 4, Batch: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		go func() {
			// Drain the sinks so batched offers never block the fuzzer.
			for q := 0; q < len(d.lanes); q++ {
				go func(c <-chan []Item) {
					for range c {
					}
				}(d.Sink(q))
			}
		}()

		h1, ok1 := h.HashPacket(pkt)
		h2, ok2 := h.HashPacket(pkt)
		if h1 != h2 || ok1 != ok2 {
			t.Fatalf("hash unstable: (%#x,%v) then (%#x,%v)", h1, ok1, h2, ok2)
		}

		// Offer steers by the hash, and the same flow never crosses
		// queues mid-run.
		q1 := d.Offer(pkt)
		if !ok1 && q1 != 0 {
			t.Fatalf("malformed frame steered to queue %d, want the queue-0 fallback", q1)
		}
		if ok1 && q1 != d.ind.QueueFor(h1) {
			t.Fatalf("Offer steered to %d, the indirection of hash %#x says %d", q1, h1, d.ind.QueueFor(h1))
		}
		if got := d.Offer(append([]byte(nil), pkt...)); got != q1 {
			t.Fatalf("identical frame crossed queues: %d then %d", d.Offer(pkt), q1)
		}

		// Raw-tuple stability: hashing any prefix of the key-sized
		// window must not panic and must be repeatable.
		if h.sum(pkt) != h.sum(pkt) {
			t.Fatal("Sum unstable")
		}
	})
}
