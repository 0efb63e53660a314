package main

import (
	"errors"
	"math/rand"
	"net/http"
	"testing"
	"time"
)

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{11, 20, 100, 1000} {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // descending, so the helper must sort
		}
		tl := tailOf(s)
		beyond := 0
		for _, v := range s {
			if v > tl.Value {
				beyond++
			}
		}
		if beyond != tailMinBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", n, beyond, tailMinBeyond)
		}
		if tl.N != n {
			t.Errorf("n=%d: tail reports n=%d", n, tl.N)
		}
		if want := 100 * float64(n-tailMinBeyond) / float64(n); tl.Percentile != want {
			t.Errorf("n=%d: percentile %v, want %v", n, tl.Percentile, want)
		}
	}
	if tl := tailOf([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}); tl.Value != 1 {
		t.Errorf("n=11: tail %v, want the minimum", tl.Value)
	}
	// With 100 samples the tail is p90: the 90th smallest.
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if tl := tailOf(s); tl.Value != 90 || tl.Percentile != 90 {
		t.Errorf("1..100: tail %+v, want p90 = 90", tl)
	}
	// Too few samples for any percentile: the minimum, at p0.
	if tl := tailOf([]float64{5, 3, 4}); tl.Value != 3 || tl.Percentile != 0 || tl.N != 3 {
		t.Errorf("3 samples: tail %+v", tl)
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	due := time.Unix(1000, 0)
	// Sent 30 ms late behind a stalled request: the wait is charged.
	lat, lag := openLoopTiming(due, due.Add(30*time.Millisecond), due.Add(50*time.Millisecond))
	if lat != 50*time.Millisecond || lag != 30*time.Millisecond {
		t.Errorf("late send: latency %v lag %v, want 50ms and 30ms", lat, lag)
	}
	// Sent on time: latency is the service time.
	lat, lag = openLoopTiming(due, due, due.Add(20*time.Millisecond))
	if lat != 20*time.Millisecond || lag != 0 {
		t.Errorf("on-time send: latency %v lag %v", lat, lag)
	}
}

func TestRatiosCountRefusalsFaultsAndMismatchesAsMisses(t *testing.T) {
	limit := 100 * time.Millisecond
	ops := []outcome{
		{Latency: 10 * time.Millisecond, Status: http.StatusOK},                 // ok, in limit
		{Latency: 10 * time.Millisecond},                                        // library op, ok
		{Latency: 150 * time.Millisecond, Status: http.StatusOK},                // ok, over limit
		{Latency: 1 * time.Millisecond, Status: http.StatusTooManyRequests},     // refused
		{Latency: 1 * time.Millisecond, Status: http.StatusServiceUnavailable},  // 5xx
		{Latency: 1 * time.Millisecond, Status: http.StatusInternalServerError}, // 5xx
		{Latency: 10 * time.Millisecond, Status: http.StatusOK, Mismatch: true}, // wrong bytes
		{Latency: 10 * time.Millisecond, Err: errors.New("connection reset")},   // transport
	}
	failed, slo := ratios(ops, limit)
	if failed != 5.0/8 {
		t.Errorf("failed_ratio %v, want 5/8", failed)
	}
	if slo != 2.0/8 {
		t.Errorf("slo_ok_ratio %v, want 2/8", slo)
	}
	if got := okLatenciesMS(ops); len(got) != 3 {
		t.Errorf("%d ok latencies, want 3", len(got))
	}
}

func TestPoissonScheduleIsSortedWithinWindow(t *testing.T) {
	window := 10 * time.Second
	a := poissonSchedule(rand.New(rand.NewSource(1)), 8, window)
	b := poissonSchedule(rand.New(rand.NewSource(1)), 8, window)
	if len(a) != 80 {
		t.Fatalf("%d arrivals, want 80", len(a))
	}
	for i, d := range a {
		if d < 0 || d >= window || (i > 0 && d < a[i-1]) || d != b[i] {
			t.Fatalf("arrival %d at %v: out of order, out of window or not reproducible", i, d)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median %v", m)
	}
}
