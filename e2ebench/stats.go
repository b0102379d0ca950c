package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/sloreport"
)

// minBeyond is how many samples must rank strictly above a reported
// percentile for it to count as measured rather than read off the maximum.
const minBeyond = 10

// pct is one percentile of a sample set, with the counts that say how far
// to trust it.
type pct struct {
	Q      float64 `json:"q"`
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Beyond int     `json:"beyond"`
}

// percentile returns the q-quantile of xs (sorted ascending) by the
// nearest-rank rule crisp-load reports with (sloreport.Percentile), and
// how many samples rank above it.
func percentile(xs []float64, q float64) pct {
	n := len(xs)
	return pct{Q: q, Value: sloreport.Percentile(xs, q), N: n, Beyond: n - rank(q, n)}
}

// rank is the 1-based nearest rank of the q-quantile among n samples.
func rank(q float64, n int) int { return min(max(int(math.Ceil(q*float64(n))), 1), n) }

// minSamples is the smallest sample count that leaves minBeyond samples
// above the q-quantile.
func minSamples(q float64) int {
	n := 1
	for n-rank(q, n) < minBeyond {
		n++
	}
	return n
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the 0.5 percentile of an unsorted sample set.
func median(xs []float64) float64 { return percentile(sorted(xs), 0.5).Value }

// mean is the arithmetic mean (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio divides, reading 0 when the base is empty.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
