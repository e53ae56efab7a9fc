package analytic

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFlushProbUniformBirthday(t *testing.T) {
	// L=2, N=2: 1 - exp(-1) ~ 0.63.
	got := FlushProbUniform(2, 2)
	if math.Abs(got-(1-math.Exp(-1))) > 1e-9 {
		t.Errorf("P_f^u(2,2) = %f", got)
	}
	if FlushProbUniform(1, 100) != 0 {
		t.Error("a single-stage window cannot collide")
	}
	if FlushProbUniform(10, 0) != 0 {
		t.Error("zero flows must yield zero probability")
	}
}

func TestFlushProbMonotonicity(t *testing.T) {
	// More flows -> lower probability; wider windows -> higher.
	f := func(l8, n16 uint8) bool {
		L := 2 + int(l8)%30
		N := 10 + int(n16)*100
		if FlushProbUniform(L, N) < FlushProbUniform(L, N*10) {
			return false
		}
		if FlushProbUniform(L+1, N) < FlushProbUniform(L, N) {
			return false
		}
		if FlushProbZipf(L, N) < FlushProbZipf(L, N*10)-1e-12 {
			return false
		}
		if FlushProbZipf(L+1, N) < FlushProbZipf(L, N) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestZipfProbabilitiesNormalise(t *testing.T) {
	N := 50000
	var sum float64
	for i := 1; i <= N; i++ {
		sum += zipfFlowProb(i, N)
	}
	// The ln(N) normalisation makes the sum approach 1 (harmonic ~ ln N + gamma).
	if sum < 0.95 || sum > 1.1 {
		t.Errorf("Zipf frequencies sum to %f", sum)
	}
}

func TestThroughputEquation(t *testing.T) {
	// No flushes: full rate.
	if Throughput(250, 100, 0) != 250 {
		t.Error("zero-P_f throughput must be the peak")
	}
	// Pf=1: every packet costs K cycles.
	if got := Throughput(250, 10, 1); math.Abs(got-25) > 1e-9 {
		t.Errorf("T_p(Pf=1,K=10) = %f, want 25", got)
	}
	// Equation self-consistency with KMax.
	pf := 0.03
	kmax := kMax(250, 148, pf)
	if got := Throughput(250, int(kmax), pf); got < 146 || got > 154 {
		t.Errorf("Throughput at KMax = %f, want ~148 (integer-K rounding allowed)", got)
	}
}

func TestTable4MatchesPaperShape(t *testing.T) {
	rows := Table4()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Paper's Table 4: L=2 -> ~1%, 61; L=3 -> ~3%, 21; L=4 -> ~6%, 11;
	// L=5 -> ~10%, 7. The shape must hold: Pf grows, KMax shrinks, and
	// the magnitudes stay in the same decade.
	wantPf := []float64{0.01, 0.03, 0.06, 0.10}
	wantK := []float64{61, 21, 11, 7}
	for i, row := range rows {
		if row.L != i+2 {
			t.Errorf("row %d: L = %d", i, row.L)
		}
		if row.PfZ < wantPf[i]/3 || row.PfZ > wantPf[i]*3 {
			t.Errorf("L=%d: Pf = %.4f, paper ~%.2f", row.L, row.PfZ, wantPf[i])
		}
		if row.KMax < wantK[i]/3 || row.KMax > wantK[i]*3 {
			t.Errorf("L=%d: KMax = %.1f, paper ~%.0f", row.L, row.KMax, wantK[i])
		}
		if i > 0 {
			if rows[i].PfZ <= rows[i-1].PfZ {
				t.Error("Pf must grow with L")
			}
			if rows[i].KMax >= rows[i-1].KMax {
				t.Error("KMax must shrink with L")
			}
		}
	}
}

func TestTable3NAForAtomicOnlyPrograms(t *testing.T) {
	rows := Table3([]struct {
		Name       string
		K, L       int
		NeedsFlush bool
	}{
		{"firewall", 0, 0, false},
		{"leaky", 39, 5, true},
	})
	if rows[0].TpMpps != 0 {
		t.Error("non-flushing program should report N/A (0)")
	}
	if rows[1].TpMpps <= 0 || rows[1].TpMpps > 250 {
		t.Errorf("leaky Tp = %f", rows[1].TpMpps)
	}
}
