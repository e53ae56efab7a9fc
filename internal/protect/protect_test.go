package protect

import (
	"math/rand"
	"testing"
)

// word injects value bytes for a single test word.
func testValue(x uint64) []byte {
	v := make([]byte, 8)
	storeWord(v, 0, x)
	return v
}

func TestSECDEDCleanWords(t *testing.T) {
	c := SECDED{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		v := testValue(rng.Uint64())
		check := make([]byte, 1)
		c.Encode(v, check)
		if st := c.CheckWord(v, check, 0); st != WordOK {
			t.Fatalf("clean word %x reported %v", v, st)
		}
	}
}

func TestSECDEDCorrectsEverySingleDataBit(t *testing.T) {
	c := SECDED{}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		x := rng.Uint64()
		for bit := 0; bit < 64; bit++ {
			v := testValue(x)
			check := make([]byte, 1)
			c.Encode(v, check)
			v[bit/8] ^= 1 << (bit % 8)
			if st := c.CheckWord(v, check, 0); st != WordCorrected {
				t.Fatalf("data bit %d flip: status %v", bit, st)
			}
			if got := loadWord(v, 0); got != x {
				t.Fatalf("data bit %d flip: corrected to %x, want %x", bit, got, x)
			}
			// The corrected word must verify clean.
			if st := c.CheckWord(v, check, 0); st != WordOK {
				t.Fatalf("data bit %d: recheck after correction: %v", bit, st)
			}
		}
	}
}

func TestSECDEDCorrectsEveryCheckBit(t *testing.T) {
	c := SECDED{}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		x := rng.Uint64()
		for bit := 0; bit < 8; bit++ {
			v := testValue(x)
			check := make([]byte, 1)
			c.Encode(v, check)
			check[0] ^= 1 << bit
			if st := c.CheckWord(v, check, 0); st != WordCorrected {
				t.Fatalf("check bit %d flip: status %v", bit, st)
			}
			if got := loadWord(v, 0); got != x {
				t.Fatalf("check bit %d flip corrupted data: %x want %x", bit, got, x)
			}
			if st := c.CheckWord(v, check, 0); st != WordOK {
				t.Fatalf("check bit %d: recheck after correction: %v", bit, st)
			}
		}
	}
}

func TestSECDEDDetectsDoubleBitErrors(t *testing.T) {
	c := SECDED{}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 500; trial++ {
		x := rng.Uint64()
		v := testValue(x)
		check := make([]byte, 1)
		c.Encode(v, check)
		b1 := rng.Intn(64)
		b2 := rng.Intn(64)
		for b2 == b1 {
			b2 = rng.Intn(64)
		}
		v[b1/8] ^= 1 << (b1 % 8)
		v[b2/8] ^= 1 << (b2 % 8)
		if st := c.CheckWord(v, check, 0); st != WordUncorrectable {
			t.Fatalf("double flip (%d,%d) on %x: status %v", b1, b2, x, st)
		}
	}
}

func TestSECDEDPartialFinalWord(t *testing.T) {
	// Values whose size is not a word multiple pad the final word with
	// zeros; single-bit flips anywhere in the stored bytes must correct.
	c := SECDED{}
	for _, size := range []int{1, 3, 4, 7, 9, 12, 13} {
		v := make([]byte, size)
		for i := range v {
			v[i] = byte(37*i + 11)
		}
		check := make([]byte, Words(size))
		c.Encode(v, check)
		for bit := 0; bit < size*8; bit++ {
			want := append([]byte(nil), v...)
			v[bit/8] ^= 1 << (bit % 8)
			if st := c.CheckWord(v, check, bit/8/wordBytes); st != WordCorrected {
				t.Fatalf("size %d bit %d: status %v", size, bit, st)
			}
			for i := range v {
				if v[i] != want[i] {
					t.Fatalf("size %d bit %d: byte %d not restored", size, bit, i)
				}
			}
		}
	}
}

func TestParityDetectsButCannotCorrect(t *testing.T) {
	c := parity{}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		x := rng.Uint64()
		v := testValue(x)
		check := make([]byte, 1)
		c.Encode(v, check)
		if st := c.CheckWord(v, check, 0); st != WordOK {
			t.Fatalf("clean parity word reported %v", st)
		}
		bit := rng.Intn(64)
		v[bit/8] ^= 1 << (bit % 8)
		if st := c.CheckWord(v, check, 0); st != WordUncorrectable {
			t.Fatalf("parity missed a single-bit flip: %v", st)
		}
		if got := loadWord(v, 0); got == x {
			t.Fatal("parity codec silently corrected — it must only detect")
		}
	}
}

func TestLevelRoundTrip(t *testing.T) {
	for _, l := range []Level{LevelNone, LevelParity, LevelECC} {
		got, err := ParseLevel(l.String())
		if err != nil || got != l {
			t.Fatalf("ParseLevel(%q) = %v, %v", l, got, err)
		}
	}
	if _, err := ParseLevel("bogus"); err == nil {
		t.Fatal("ParseLevel accepted garbage")
	}
	if ForLevel(LevelNone) != nil {
		t.Fatal("ForLevel(none) must be nil")
	}
	if ForLevel(LevelParity).Level() != LevelParity || ForLevel(LevelECC).Level() != LevelECC {
		t.Fatal("ForLevel returned the wrong codec")
	}
}

func TestCountersNote(t *testing.T) {
	var c Counters
	c.Note(WordOK)
	c.Note(WordCorrected)
	c.Note(WordUncorrectable)
	if c.Checked != 3 || c.Corrected != 1 || c.Uncorrectable != 1 {
		t.Fatalf("counters %+v", c)
	}
	sum := c.Add(c)
	if sum.Checked != 6 || sum.Corrected != 2 || sum.Uncorrectable != 2 {
		t.Fatalf("sum %+v", sum)
	}
}

// fakeStore is a deterministic Scrubbable for scheduler tests.
type fakeStore struct {
	words  int
	cursor int
	status []WordStatus // per-word outcome script, WordOK when exhausted
	seen   int
}

func (f *fakeStore) ScrubWord() (WordStatus, bool) {
	if f.words == 0 {
		return WordOK, true
	}
	st := WordOK
	if f.seen < len(f.status) {
		st = f.status[f.seen]
	}
	f.seen++
	f.cursor++
	if f.cursor >= f.words {
		f.cursor = 0
		return st, true
	}
	return st, false
}

func TestScrubberBudgetAndPassAccounting(t *testing.T) {
	a := &fakeStore{words: 3}
	b := &fakeStore{words: 2}
	s := NewScrubber(4, a, b)
	// 5 words per pass at 4 cycles/word: a pass completes every 20 ticks.
	var passes int
	for i := 0; i < 40; i++ {
		done, clean := s.Tick()
		if done {
			passes++
			if !clean {
				t.Fatal("clean pass reported dirty")
			}
		}
	}
	if passes != 2 {
		t.Fatalf("40 ticks at 4 cycles/word over 5 words: %d passes, want 2", passes)
	}
	st := s.Stats()
	if st.Words != 10 || st.Passes != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestScrubberDirtyPass(t *testing.T) {
	a := &fakeStore{words: 2, status: []WordStatus{WordCorrected, WordUncorrectable}}
	s := NewScrubber(1, a)
	var doneClean, doneDirty int
	for i := 0; i < 4; i++ {
		if done, clean := s.Tick(); done {
			if clean {
				doneClean++
			} else {
				doneDirty++
			}
		}
	}
	if doneDirty != 1 || doneClean != 1 {
		t.Fatalf("dirty %d clean %d, want 1 and 1 (pass after the upset is clean again)", doneDirty, doneClean)
	}
	st := s.Stats()
	if st.Corrected != 1 || st.Uncorrectable != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestScrubberEmpty(t *testing.T) {
	s := NewScrubber(1)
	if done, _ := s.Tick(); done {
		t.Fatal("scrubber with no stores completed a pass")
	}
}
