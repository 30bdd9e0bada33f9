package main

import (
	"testing"
	"time"
)

func TestTailHasTenJobsBeyond(t *testing.T) {
	xs := make([]float64, 146)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // 146, 145, ..., 1: the order must not matter
	}
	v, pct := tail(xs)
	// 10 values (137..146) lie above the tail, so it is the 11th largest.
	if v != 136 {
		t.Errorf("tail value = %v, want 136", v)
	}
	if want := 100 * 136.0 / 146; pct != want {
		t.Errorf("tail percentile = %v, want %v", pct, want)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != tailBeyond {
		t.Errorf("%d values beyond the tail, want %d", beyond, tailBeyond)
	}
}

func TestTailFewJobsReportsMax(t *testing.T) {
	for _, n := range []int{1, 5, tailBeyond} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		if v, pct := tail(xs); v != float64(n-1) || pct != 100 {
			t.Errorf("n=%d: tail = (%v, p%v), want the maximum at p100", n, v, pct)
		}
	}
	if v, pct := tail(nil); v != 0 || pct != 0 {
		t.Errorf("empty: tail = (%v, %v), want (0, 0)", v, pct)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSplitForksSharesGroupTime(t *testing.T) {
	ms := time.Millisecond
	jobs := []job{
		{label: "a", took: 5 * ms},
		{label: "g1", took: 30 * ms}, // a fork group finishes together:
		{label: "g2", took: 0},       // the first report carries it all
		{label: "g3", took: 0},
		{label: "b", took: 7 * ms},
		{label: "h1", took: 8 * ms},
	}
	fork := map[string]string{"g1": "g", "g2": "g", "g3": "g", "h1": "h"}
	got := splitForks(jobs, fork)
	want := []time.Duration{5 * ms, 10 * ms, 10 * ms, 10 * ms, 7 * ms, 8 * ms}
	for i := range want {
		if got[i].took != want[i] || got[i].label != jobs[i].label {
			t.Errorf("job %d = %s %v, want %s %v", i, got[i].label, got[i].took, jobs[i].label, want[i])
		}
	}
	if jobs[1].took != 30*ms {
		t.Error("splitForks modified its input")
	}
}
