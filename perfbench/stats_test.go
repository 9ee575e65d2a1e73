package main

import (
	"slices"
	"testing"
	"time"
)

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantV   float64
		wantPct float64
	}{
		{n: 11, wantV: 1, wantPct: 100.0 / 11},
		{n: 100, wantV: 90, wantPct: 90},
		{n: 1000, wantV: 990, wantPct: 99},
		{n: 250, wantV: 240, wantPct: 96},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			// Reverse order: tail must sort a copy.
			xs[i] = float64(tc.n - i)
		}
		v, pct, ok := tail(xs)
		if !ok || v != tc.wantV || pct != tc.wantPct {
			t.Errorf("n=%d: tail = %v, p%v, %v; want %v, p%v", tc.n, v, pct, ok, tc.wantV, tc.wantPct)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, tailBeyond)
		}
		if xs[0] != float64(tc.n) {
			t.Errorf("n=%d: tail reordered its input", tc.n)
		}
	}
	for _, n := range []int{0, 1, tailBeyond} {
		if _, _, ok := tail(make([]float64, n)); ok {
			t.Errorf("n=%d: tail reported a percentile with too few samples", n)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if got := millis([]time.Duration{1500 * time.Microsecond}); got[0] != 1.5 {
		t.Errorf("millis = %v, want 1.5", got)
	}
}

func TestPoolKindsMergesPasses(t *testing.T) {
	passes := []passResult{
		{kindLat: map[string][]time.Duration{"cold": {time.Millisecond}, "repeat": {2 * time.Millisecond}}},
		{},
		{kindLat: map[string][]time.Duration{"cold": {3 * time.Millisecond}}},
	}
	got := poolKinds(passes)
	if len(got) != 2 || !slices.Equal(got["cold"], []float64{1, 3}) || !slices.Equal(got["repeat"], []float64{2}) {
		t.Fatalf("poolKinds = %v", got)
	}
}
