package hwsim

import "math/bits"

// stageReg is the pipeline's stage register: which job occupies which
// stage. The hardware moves every frame up one stage per clock; the
// model keeps jobs in stationary slots and moves the frame of reference
// instead. Logical stage t is slot (t + origin) mod n, so a clock edge
// is origin-- — every job is one stage further along without a pointer
// having been written — plus a one-bit left shift of the occupancy
// words, whose bit t is set exactly when stage t holds a job. A cycle
// then costs what is in flight: walks visit set bits, counts are
// popcounts, and an empty stage is never looked at.
type stageReg struct {
	slots  []*job
	occ    []uint64
	every  []uint64 // all ones: the mask of an unrestricted walk
	origin int      // in [0, len(slots))
}

func newStageReg(n int) stageReg {
	r := stageReg{slots: make([]*job, n), occ: make([]uint64, (n+63)/64), every: make([]uint64, (n+63)/64)}
	for w := range r.every {
		r.every[w] = ^uint64(0)
	}
	return r
}

func (r *stageReg) slot(t int) int {
	if i := t + r.origin; i < len(r.slots) {
		return i
	}
	return t + r.origin - len(r.slots)
}

// at returns the job in stage t, nil when the stage is empty.
func (r *stageReg) at(t int) *job { return r.slots[r.slot(t)] }

// put places j in stage t; a nil j empties the stage.
func (r *stageReg) put(t int, j *job) {
	r.slots[r.slot(t)] = j
	if j != nil {
		r.occ[t>>6] |= 1 << (t & 63)
	} else {
		r.occ[t>>6] &^= 1 << (t & 63)
	}
}

// advance is one clock edge: the job in every stage at or above low
// moves up one, stages below low hold (low is 0 unless a stall point is
// open). The final stage must be empty — its packet retires first —
// except when low names it and nothing moves. The whole register turns
// with the origin, so on a stalled edge the held jobs, and only those,
// step one slot back to stay where they were; the slot a held job
// enters was vacated just before it, by the retired packet or by the
// held job below.
func (r *stageReg) advance(low int) {
	if low >= len(r.slots)-1 {
		return
	}
	if r.origin--; r.origin < 0 {
		r.origin = len(r.slots) - 1
	}
	lw, held := low>>6, uint64(1)<<(low&63)-1
	for w := len(r.occ) - 1; w > lw; w-- {
		r.occ[w] = r.occ[w]<<1 | r.occ[w-1]>>63
	}
	r.occ[lw] = r.occ[lw]&held | r.occ[lw]&^held<<1
	for w := 0; w <= lw; w++ {
		word := r.occ[w]
		if w == lw {
			word &= held
		}
		for ; word != 0; word &= word - 1 {
			t := w<<6 + bits.TrailingZeros64(word)
			from := r.slot(t + 1) // where stage t sat before the origin turned
			r.slots[r.slot(t)], r.slots[from] = r.slots[from], nil
		}
	}
}

// oldest returns the highest occupied stage, or -1.
func (r *stageReg) oldest() int { return r.prevOccupied(len(r.slots)) }

// prevOccupied returns the highest occupied stage below t, or -1. A
// walk from the oldest packet down is
//
//	for t := r.oldest(); t >= 0; t = r.prevOccupied(t)
//
// and reads the live words at every step, so a stage a flush recall
// empties in the middle of the walk is not visited.
func (r *stageReg) prevOccupied(t int) int { return r.prevIn(r.every, t) }

// prevIn is prevOccupied over the stages whose bit is set in mask.
func (r *stageReg) prevIn(mask []uint64, t int) int {
	w := (t - 1) >> 6
	if w < 0 {
		return -1
	}
	word := r.occ[w] & mask[w] & (^uint64(0) >> (63 - (t-1)&63))
	for word == 0 {
		if w--; w < 0 {
			return -1
		}
		word = r.occ[w] & mask[w]
	}
	return w<<6 + bits.Len64(word) - 1
}

// count returns the number of occupied stages.
func (r *stageReg) count() int {
	n := 0
	for _, word := range r.occ {
		n += bits.OnesCount64(word)
	}
	return n
}
