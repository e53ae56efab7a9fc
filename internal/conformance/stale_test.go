package conformance

import (
	"testing"

	"ehdl/internal/hwsim"
)

// staleScenario is one run of StalePointerFrames' scenario followed by
// enough spacers to drain any of the compared pipelines.
func staleScenario(ids ...byte) []byte {
	return append(ids, make([]byte, 256)...)
}

// staleSequences are flow-id sequences for StalePointerZoo.
func staleSequences() map[string][]byte {
	cat := func(seqs ...[]byte) (out []byte) {
		for _, s := range seqs {
			out = append(out, s...)
		}
		return out
	}
	return map[string][]byte{
		// 1 is installed by the host; 2, 3 and 4 take the free slots, 5
		// pushes 1 out and takes its slot.
		"evict": staleScenario(1, 2, 3, 4, 5, 5),
		// The same again on a full table, twice: each scenario's d is the
		// next one's h, every slot changes tenant.
		"refill": cat(staleScenario(1, 2, 3, 4, 5, 5), staleScenario(5, 6, 7, 8, 9, 9), staleScenario(9, 10, 11, 12, 13, 13)),
		// The reader's own key is evicted behind it and comes back as a
		// new entry, once the eviction has committed (a lookup that races
		// it is a hazard the Flush Evaluation Block does not see): the
		// late adds belong to the old entry.
		"return": cat(staleScenario(1, 2, 3, 4, 5, 5), staleScenario(5, 6, 7, 8, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 5)),
	}
}

// TestStalePointerThreeWay: reference VM ≡ interpreter ≡ one-burst on
// verdicts, packet bytes and map contents while pointers outlive their
// entries — with the plain tables (the static add runs on the kept
// slice, the register-relative one on the rebound address) and with the
// generic ones (a tracer: every access resolves its address), which the
// fast path does not serve.
func TestStalePointerThreeWay(t *testing.T) {
	app := StalePointerZoo()
	for name, ids := range staleSequences() {
		packets := StalePointerFrames(ids)
		t.Run(name, func(t *testing.T) {
			if err := DiffAppThreeWay(app, packets, Config{}); err != nil {
				t.Fatal(err)
			}
			tr, reg := newTestObs()
			if err := DiffAppThreeWay(app, packets, Config{sim: hwsim.Config{Trace: tr, Metrics: reg}}); err != nil {
				t.Fatalf("traced: %v", err)
			}
			if err := DiffAppThreeWay(app, packets, Config{sim: hwsim.Config{Policy: hwsim.PolicyStall}}); err != nil {
				t.Fatalf("stall policy: %v", err)
			}
		})
	}
}
