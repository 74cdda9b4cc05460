package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between closest ranks, or 0 for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns xs sorted ascending without modifying xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of an unsorted sample.
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// tailPercentiles is the ladder the tail percentile is chosen from.
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// tailPercentile returns the highest percentile of the ladder that leaves
// at least ten samples beyond it in a sample of n, and how many samples lie
// beyond it.  ok is false when even the median leaves fewer than ten.
func tailPercentile(n int) (pct float64, beyond int, ok bool) {
	for _, p := range tailPercentiles {
		b := int(math.Floor(float64(n)*(100-p)/100 + 1e-9))
		if b < 10 {
			break
		}
		pct, beyond, ok = p, b, true
	}
	return pct, beyond, ok
}

// supports reports whether a sample of n leaves at least ten samples beyond
// percentile p.
func supports(n int, p float64) bool {
	return math.Floor(float64(n)*(100-p)/100+1e-9) >= 10
}

// histQuantile estimates the q-quantile of a histogram whose bucket i
// counts values in [lo(i), hi(i)), interpolating linearly inside the bucket
// that holds the target rank.
func histQuantile(buckets []uint64, q float64, lo, hi func(i int) float64) float64 {
	var total uint64
	for _, c := range buckets {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var seen float64
	for i, c := range buckets {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= target {
			frac := (target - seen) / float64(c)
			return lo(i) + frac*(hi(i)-lo(i))
		}
		seen += float64(c)
	}
	last := len(buckets) - 1
	return hi(last)
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
