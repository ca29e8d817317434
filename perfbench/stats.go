package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a percentile with fewer samples beyond it is a single
// outlier, not a tail.
const minBeyond = 10

// tailCandidates are the percentiles a tail metric may report, highest
// first. The tail metrics are named p99, so none goes higher.
var tailCandidates = []float64{99, 98, 97, 95, 90, 75, 50}

// rank returns the 1-based nearest-rank position of percentile p among n
// sorted samples.
func rank(p float64, n int) int {
	// The epsilon keeps float error from pushing an exact rank up by one.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(p, len(sorted))-1]
}

// tail returns the highest candidate percentile that has at least
// minBeyond samples above it, with its value. ok is false when even the
// median has fewer than minBeyond samples beyond it.
func tail(sorted []float64) (p, v float64, ok bool) {
	n := len(sorted)
	for _, c := range tailCandidates {
		if n-rank(c, n) >= minBeyond {
			return c, percentile(sorted, c), true
		}
	}
	return 0, math.NaN(), false
}

// median returns the median of xs (the mean of the middle two for an
// even count) without reordering xs.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// pct returns 100·num/den, or 0 when den is 0.
func pct(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * num / den
}
