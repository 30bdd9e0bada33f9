package main

import "sort"

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many jobs must lie above the reported tail: a percentile
// backed by fewer samples beyond it is a single straggler, not a tail.
const tailBeyond = 10

// tail returns the highest percentile of xs that has at least tailBeyond
// values beyond it, as (value, percentile). With n values that is the
// (tailBeyond+1)-th largest value, at percentile 100·(n−tailBeyond)/n. With
// tailBeyond values or fewer no percentile qualifies, and tail reports the
// maximum at percentile 100.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	if n <= tailBeyond {
		return s[n-1], 100
	}
	return s[n-1-tailBeyond], 100 * float64(n-tailBeyond) / float64(n)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
