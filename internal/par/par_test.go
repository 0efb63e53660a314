package par

import (
	"sync/atomic"
	"testing"
)

// TestParallelDoVisitsEachIndexOnce: every index in [0, n) is handed out
// exactly once, and the worker index stays inside the clamped pool, at
// worker counts below, at and above n.
func TestParallelDoVisitsEachIndexOnce(t *testing.T) {
	const n = 1000
	for _, workers := range []int{1, 2, 8, n + 5} {
		hits := make([]atomic.Int32, n)
		var badWorker atomic.Int32
		Do(n, workers, func(w, i int) {
			if w < 0 || w >= min(workers, n) {
				badWorker.Store(1)
			}
			hits[i].Add(1)
		})
		if badWorker.Load() != 0 {
			t.Errorf("workers=%d: worker index outside [0, %d)", workers, min(workers, n))
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

// TestParallelDoDegenerate: workers ≤ 0 runs everything inline as worker
// 0, in index order; n ≤ 0 never calls fn.
func TestParallelDoDegenerate(t *testing.T) {
	for _, workers := range []int{0, -3} {
		var order []int
		Do(5, workers, func(w, i int) {
			if w != 0 {
				t.Fatalf("workers=%d: inline call got worker %d", workers, w)
			}
			order = append(order, i)
		})
		for i, got := range order {
			if got != i {
				t.Fatalf("workers=%d: order %v, want 0..4", workers, order)
			}
		}
		if len(order) != 5 {
			t.Fatalf("workers=%d: %d calls, want 5", workers, len(order))
		}
	}
	for _, n := range []int{0, -1} {
		for _, workers := range []int{0, 1, 4} {
			Do(n, workers, func(int, int) { t.Fatalf("n=%d workers=%d: fn called", n, workers) })
		}
	}
}
