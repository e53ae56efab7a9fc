package hwsim

import (
	"math/rand"
	"testing"
)

// TestStageRegMatchesShiftRegister drives the stage register and the
// physical shift register it replaced — a []*job copied up by one per
// clock — with the same random sequence of put, clear and advance(low)
// for every low in range, and requires at, prevOccupied and count to
// agree after every step. The sizes cross the occupancy word boundary
// (carry between words) and every run turns the origin through several
// full wraps.
func TestStageRegMatchesShiftRegister(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 65, 130} {
		rng := rand.New(rand.NewSource(int64(n)))
		reg, model := newStageReg(n), make([]*job, n)
		check := func(step int, what string) {
			t.Helper()
			prev, count := -1, 0
			for s := 0; s < n; s++ {
				if reg.at(s) != model[s] {
					t.Fatalf("n=%d step %d (%s): stage %d holds %p, the shift register %p", n, step, what, s, reg.at(s), model[s])
				}
				if got := reg.prevOccupied(s); got != prev {
					t.Fatalf("n=%d step %d (%s): prevOccupied(%d) = %d, want %d", n, step, what, s, got, prev)
				}
				if model[s] != nil {
					prev = s
					count++
				}
			}
			if got := reg.prevOccupied(n); got != prev {
				t.Fatalf("n=%d step %d (%s): prevOccupied(%d) = %d, want %d", n, step, what, n, got, prev)
			}
			if reg.count() != count {
				t.Fatalf("n=%d step %d (%s): count = %d, want %d", n, step, what, reg.count(), count)
			}
		}
		low := 0
		for step := 0; step < 40*n+200; step++ {
			switch s := rng.Intn(n); rng.Intn(4) {
			case 0:
				j := &job{}
				reg.put(s, j)
				model[s] = j
				check(step, "put")
			case 1:
				reg.put(s, nil)
				model[s] = nil
				check(step, "clear")
			default:
				// One clock: the final stage retires, then the edge — free
				// running half the time, otherwise stalled at a point that
				// sweeps the whole range, n-1 (nothing moves) included.
				l := 0
				if rng.Intn(2) == 0 {
					l, low = low, (low+1)%n
				}
				reg.put(n-1, nil)
				model[n-1] = nil
				for s := n - 1; s > l; s-- {
					model[s], model[s-1] = model[s-1], nil
				}
				reg.advance(l)
				check(step, "advance")
			}
		}
	}
}
