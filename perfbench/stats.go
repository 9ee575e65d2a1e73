package main

import (
	"slices"
	"time"
)

// tailBeyond is how many samples must lie above the reported tail
// percentile, so the tail is never a single outlier.
const tailBeyond = 10

// median returns the middle of xs (the mean of the two middles for an even
// count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that still has at least
// tailBeyond samples above it, with that percentile: the value at rank
// n-tailBeyond (1-based) and 100*(n-tailBeyond)/n. With no more than
// tailBeyond samples there is no such percentile and ok is false.
func tail(xs []float64) (v, pct float64, ok bool) {
	n := len(xs)
	if n <= tailBeyond {
		return 0, 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[n-tailBeyond-1], 100 * float64(n-tailBeyond) / float64(n), true
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work on a workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// poolKinds pools the per-kind latencies of passes, in milliseconds.
func poolKinds(passes []passResult) map[string][]float64 {
	out := map[string][]float64{}
	for _, p := range passes {
		for kind, ds := range p.kindLat {
			out[kind] = append(out[kind], millis(ds)...)
		}
	}
	return out
}
