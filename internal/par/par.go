// Package par is the library's one goroutine fan-out loop. Every
// embarrassingly parallel pass — clique enumeration, clique scoring,
// per-component search, Phase-2 sub-clique scoring, shards, dirty session
// components and batch targets — runs through Do, so worker counts,
// scheduling and the inline serial path are decided in one place.
package par

import (
	"sync"
	"sync/atomic"
)

// Do calls fn(worker, i) exactly once for every i in [0, n) and returns
// when all calls have finished. workers is clamped to [1, n]; a clamp of
// 1 runs every call inline on the caller's goroutine, in index order.
// Otherwise that many goroutines pull indices from one shared counter,
// so a slow item never stalls the others. worker identifies the calling
// goroutine, in [0, clamped workers), so callers can keep per-worker
// scratch indexed by it without locks.
func Do(n, workers int, fn func(worker, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}
