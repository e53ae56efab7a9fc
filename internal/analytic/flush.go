// Package analytic implements the throughput-degradation model of
// Appendix A.1: the probability that a pipeline flush occurs as a
// function of the hazard window L and the flow population, and the
// resulting sustained throughput.
package analytic

import "math"

// FlushProbUniform is equation (1): with N uniformly distributed flows
// and a window of L stages between read and write, the probability that
// two packets of one flow share the window is the birthday bound
//
//	P_f = 1 - exp(-L^2 / 2N).
func FlushProbUniform(L int, N int) float64 {
	if N <= 0 || L <= 1 {
		return 0
	}
	return 1 - math.Exp(-float64(L*L)/(2*float64(N)))
}

// zipfFlowProb is the per-flow probability under the paper's Zipfian
// model: flow i has frequency proportional to 1/i, normalised by ln(N).
func zipfFlowProb(i, N int) float64 {
	return 1 / (float64(i) * math.Log(float64(N)))
}

// FlushProbZipf computes P_f^Z: the probability of at least two
// occurrences of some flow within L trials, summing the per-flow
// binomial approximation of Appendix A.1:
//
//	P_f(i) = C(L,2) * P_i^2 * (1-P_i)^(L-2).
func FlushProbZipf(L int, N int) float64 {
	if N <= 1 || L <= 1 {
		return 0
	}
	pairs := float64(L*(L-1)) / 2
	var sum float64
	for i := 1; i <= N; i++ {
		pi := zipfFlowProb(i, N)
		sum += pairs * pi * pi * math.Pow(1-pi, float64(L-2))
		// The tail contributes negligibly: P_i^2 falls as 1/i^2.
		if i > 10000 && pi*pi*pairs < 1e-12 {
			break
		}
	}
	if sum > 1 {
		return 1
	}
	return sum
}

// Throughput is equation (2): the sustained packet rate of a pipeline
// with peak rate T (one packet per clock) when a flush costs K cycles
// and occurs with probability Pf per packet:
//
//	T_p = T / ((1-P_f) + K*P_f).
func Throughput(T float64, K int, Pf float64) float64 {
	if Pf <= 0 {
		return T
	}
	return T / ((1 - Pf) + float64(K)*Pf)
}

// kMax is equation (3): the largest number of flushable stages that
// still sustains a target throughput Tp:
//
//	K_max = (T/T_p - (1-P_f)) / P_f.
func kMax(T, Tp, Pf float64) float64 {
	if Pf <= 0 {
		return math.Inf(1)
	}
	return (T/Tp - (1 - Pf)) / Pf
}

// Table3Row is one use case of Table 3: the pipeline's hazard geometry
// and the analytic throughput at 50k Zipfian flows.
type Table3Row struct {
	Program string
	K       int
	L       int
	// TpMpps is 0 when the program has no flush hazard (N/A rows).
	TpMpps float64
}

// Table3 evaluates the model for a set of compiled geometries, with the
// paper's parameters: T = 250 Mpps (one packet per 250 MHz clock) and
// N = 50000 Zipfian flows. A flush additionally costs the 4-cycle
// pipeline reload of Appendix A.1.
func Table3(programs []struct {
	Name       string
	K, L       int
	NeedsFlush bool
}) []Table3Row {
	const (
		T       = 250.0
		N       = 50000
		reload  = 4
		MppsCap = 250.0
	)
	rows := make([]Table3Row, 0, len(programs))
	for _, p := range programs {
		row := Table3Row{Program: p.Name, K: p.K, L: p.L}
		if p.NeedsFlush && p.L > 0 {
			pf := FlushProbZipf(p.L, N)
			row.TpMpps = Throughput(T, p.K+reload, pf)
			if row.TpMpps > MppsCap {
				row.TpMpps = MppsCap
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// Table4Row is one row of Table 4: the Zipfian flush probability and
// the maximum flushable stages that still sustain 148 Mpps.
type Table4Row struct {
	L    int
	PfZ  float64
	KMax float64
}

// Table4 evaluates the model for L = 2..5 with the paper's parameters
// (50k Zipfian flows, 250 Mpps peak, 148 Mpps line-rate target).
func Table4() []Table4Row {
	const (
		T  = 250.0
		Tp = 148.0
		N  = 50000
	)
	rows := make([]Table4Row, 0, 4)
	for L := 2; L <= 5; L++ {
		pf := FlushProbZipf(L, N)
		rows = append(rows, Table4Row{L: L, PfZ: pf, KMax: kMax(T, Tp, pf)})
	}
	return rows
}
