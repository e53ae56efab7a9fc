package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of the samples by
// linear interpolation between the two nearest order statistics. It
// does not modify its argument; an empty sample set yields 0.
func quantile(samples []float64, q float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }

// Summary is the spread every recorded metric carries in a result file.
type Summary struct {
	Median float64 `json:"median"`
	P25    float64 `json:"p25"`
	P75    float64 `json:"p75"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarize(samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return Summary{
		Median: quantileSorted(s, 0.5),
		P25:    quantileSorted(s, 0.25),
		P75:    quantileSorted(s, 0.75),
		Min:    s[0],
		Max:    s[len(s)-1],
		N:      len(s),
	}
}

// exact is the summary of a metric that repeats bit for bit.
func exact(v float64) Summary {
	return Summary{Median: v, P25: v, P75: v, Min: v, Max: v, N: 1}
}
