// Package stats provides the small summary statistics the experiment
// harness reports over repeated attack trials.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample of measurements.
type Summary struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	Median float64
	StdDev float64
}

// Summarize computes a Summary. An empty sample yields the zero value.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs)}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min = sorted[0]
	s.Max = sorted[len(sorted)-1]
	s.Median = Percentile(sorted, 50)
	var sum float64
	for _, x := range xs {
		sum += x
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(len(xs)-1))
	}
	return s
}

// SummarizeUint64 converts and summarizes integer samples (encryption
// counts).
func SummarizeUint64(xs []uint64) Summary {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return Summarize(fs)
}

// Percentile returns the p-th percentile (0..100) of an ascending
// sorted sample, with linear interpolation between ranks.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// CI95 returns the half-width of a normal-approximation 95% confidence
// interval for the mean.
func (s Summary) CI95() float64 {
	if s.N < 2 {
		return 0
	}
	return 1.96 * s.StdDev / math.Sqrt(float64(s.N))
}

// String renders a compact one-line summary.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d median=%.0f mean=%.1f±%.1f min=%.0f max=%.0f",
		s.N, s.Median, s.Mean, s.CI95(), s.Min, s.Max)
}
