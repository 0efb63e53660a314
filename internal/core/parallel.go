package core

import (
	"runtime"

	"marioh/internal/graph"
	"marioh/internal/par"
)

// defaultScoreParallelThreshold is the default of Options.
// ScoreParallelThreshold (pinned by TestParallelTuningDefaults): the round
// size below which enumeration and scoring stay single-threaded, since
// goroutine fan-out only pays for itself on large rounds.
const defaultScoreParallelThreshold = 256

// Workers maps an Options.Parallelism value to a worker count: ≤ 0 means
// one worker per GOMAXPROCS, otherwise the value itself. It is the one
// place a parallelism setting is resolved: every fan-out the library runs
// (enumeration, scoring, component search, Phase-2 sub-clique scoring,
// shards, dirty session components, batch targets) is sized by it.
func Workers(parallelism int) int {
	if parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return parallelism
}

// fanout is the worker count actually used for a pass over n items under
// the configured parallelism and threshold: one below the threshold,
// never more than one worker per item, never more than configured.
func fanout(n, workers, threshold int) int {
	if n < threshold {
		return 1
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// enumerateScored enumerates the maximal cliques of g (min size 2, capped
// at limit when > 0) in the exact serial order, scores each as maximal,
// and reports whether enumeration was truncated by limit. Each phase uses
// at most workers goroutines; a residual with fewer than threshold edges
// stays single-threaded for both, so small rounds never pay for
// goroutine start-up. mapBack, when non-nil, relabels clique nodes from
// g's ids to mapBack[id] after scoring (the induced-subgraph dirty path);
// it must be ascending so relabeled cliques stay sorted.
//
// Bytes cannot depend on workers: graph.MaximalCliquesParallel reproduces
// the serial stream (and its limit cutoff) exactly, and a clique's score
// depends only on the graph and the clique. scorers are the per-worker
// scoring buffers, as in scoreCliques.
func enumerateScored(g *graph.Graph, m *Model, limit, workers, threshold int, mapBack []int, scorers []scorer) ([]scoredClique, bool) {
	workers = fanout(g.NumEdges(), workers, threshold)
	cliques := g.MaximalCliquesParallel(2, limit, workers)
	truncated := limit > 0 && len(cliques) >= limit
	scored := scoreCliques(g, m, cliques, workers, threshold, scorers)
	if mapBack != nil {
		for _, sc := range scored {
			for j, u := range sc.nodes {
				sc.nodes[j] = mapBack[u]
			}
		}
	}
	return scored, truncated
}

// ScoreCliques evaluates the classifier on each clique (treated as
// maximal) and returns the scores in input order. It is the exported form
// of the per-round scoring pass, used by benchmarks and analyses; it runs
// at the default parallelism (GOMAXPROCS) and threshold.
func ScoreCliques(g *graph.Graph, m *Model, cliques [][]int) []float64 {
	scored := scoreCliques(g, m, cliques, Workers(0), defaultScoreParallelThreshold, nil)
	out := make([]float64, len(scored))
	for i, s := range scored {
		out[i] = s.score
	}
	return out
}

// scoreCliques evaluates the classifier on every maximal clique. Scoring
// is read-only on the graph and the model, so rounds with at least
// threshold cliques fan out across up to workers goroutines; results are
// written by index, keeping the output identical to the sequential path.
// Each worker owns one scorer, so the whole pass reuses feature and
// activation buffers instead of allocating per clique; scorers supplies
// them when it has an entry per worker (a run keeps one set across its
// rounds), and the pass allocates its own otherwise.
func scoreCliques(g *graph.Graph, m *Model, cliques [][]int, workers, threshold int, scorers []scorer) []scoredClique {
	scored := make([]scoredClique, len(cliques))
	w := fanout(len(cliques), workers, threshold)
	if len(scorers) < w {
		scorers = make([]scorer, w)
	}
	par.Do(len(cliques), w, func(wk, i int) {
		scored[i] = scoredClique{nodes: cliques[i], score: m.scoreScratch(g, cliques[i], true, &scorers[wk])}
	})
	return scored
}
