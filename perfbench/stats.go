package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of sorted by the
// nearest-rank rule: the smallest sample with at least q·n samples at or
// below it. Nearest rank always returns a value that was measured, so a
// count metric stays a whole number and a tail is never interpolated
// from two samples that straddle a gap. It returns NaN for no samples.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// median returns the middle of values (mean of the two middle values for
// an even count) without reordering the caller's slice.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return math.NaN()
	}
	s := sortedCopy(values)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to describe the distribution and not one outlier.
const minBeyond = 10

// beyond is how many of n samples lie above their q-quantile as
// percentile picks it. beyond(n, 0.90) >= minBeyond is the rule that makes
// page_load_p90_ms valid at the ~108 pooled wan-page samples and invalid at
// one repetition's ~36.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// millis converts duration samples to sorted milliseconds.
func millis(samples []time.Duration) []float64 {
	out := make([]float64, len(samples))
	for i, d := range samples {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}
