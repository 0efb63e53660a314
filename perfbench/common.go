package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"marioh"
	"marioh/internal/graph"
	"marioh/internal/hypergraph"
)

// modelSeed seeds every model the benchmark trains and every
// reconstruction it runs. The models are part of the system under test,
// trained at set-up from fixed source halves, so they are the same on
// every --seed: a model is one draw that moves every op of a run in the
// same direction, and letting it vary would make a run's medians track
// the draw instead of the program.
const modelSeed = 1

// hgBytes is the canonical text of a reconstruction, the bytes the
// oracle compares.
func hgBytes(h *hypergraph.Hypergraph) []byte {
	var b bytes.Buffer
	_ = h.Write(&b) // writes to a bytes.Buffer cannot fail
	return b.Bytes()
}

func digest(b []byte) [32]byte { return sha256.Sum256(b) }

// projectsTo reports whether the clique expansion of h is exactly g: the
// same edges with the same multiplicities. It holds for every correct
// reconstruction, whatever the classifier does, so it checks the engine
// without trusting it.
func projectsTo(h *hypergraph.Hypergraph, g *graph.Graph) bool {
	return slices.Equal(h.Project().Edges(), g.Edges())
}

// serialReconstructor is the oracle's reference: the library's fully
// serial pipeline (Parallelism 1) with the workload's model and options.
func serialReconstructor(m *marioh.Model) (*marioh.Reconstructor, error) {
	return marioh.New(marioh.WithModel(m), marioh.WithSeed(modelSeed), marioh.WithParallelism(1))
}

// trainModel trains the paper-default classifier on a source half.
func trainModel(ctx context.Context, src *hypergraph.Hypergraph) (*marioh.Reconstructor, error) {
	r, err := marioh.New(marioh.WithSeed(modelSeed))
	if err != nil {
		return nil, err
	}
	if _, err := r.Train(ctx, src.Project(), src); err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	return r, nil
}

// forEach runs fn(0..n-1) on at most workers goroutines and returns once
// every call has returned.
func forEach(n, workers int, fn func(i int)) {
	workers = max(min(workers, n), 1)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// allocMB returns the bytes allocated on the heap so far, in MB.
func allocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// rssMB returns the process's resident set (VmRSS) in MB, or the memory
// the runtime obtained from the OS where /proc is missing.
func rssMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
				if fields := strings.Fields(rest); len(fields) > 0 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// rssPeak samples the resident set every rssEvery while a window runs,
// so peak_rss_mb describes the window and not the set-up's training.
type rssPeak struct {
	stop chan struct{}
	done chan float64
}

const rssEvery = 20 * time.Millisecond

func sampleRSS() *rssPeak {
	p := &rssPeak{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		peak := rssMB()
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				p.done <- max(peak, rssMB())
				return
			case <-tick.C:
				peak = max(peak, rssMB())
			}
		}
	}()
	return p
}

// peak stops the sampler and returns the largest resident set it saw, in
// MB.
func (p *rssPeak) peak() float64 {
	close(p.stop)
	return <-p.done
}

// applyOps applies a delta batch to g with the library's delta semantics
// (the same Tracker the session engine uses).
func applyOps(t *graph.Tracker, ops []graph.DeltaOp) {
	for _, op := range ops {
		t.Apply(op)
	}
}

// componentStats returns the number of edge-bearing components of g and
// the size of the largest.
func componentStats(g *graph.Graph) (comps, giant int) {
	for _, c := range g.ConnectedComponents() {
		if len(c) < 2 {
			continue
		}
		comps++
		giant = max(giant, len(c))
	}
	return comps, giant
}

// setupMedian runs setup setupReps times and returns the median wall time
// in seconds with the last run's result; earlier results are released
// through discard.
func setupMedian[T any](setup func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			discard(last)
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return v, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = v
	}
	return last, median(secs), nil
}
