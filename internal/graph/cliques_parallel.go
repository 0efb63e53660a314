package graph

import (
	"slices"

	"marioh/internal/par"
)

// MaximalCliquesParallel is MaximalCliquesLimit with the per-seed
// Bron–Kerbosch expansions fanned across at most workers goroutines
// (par.Do). The result is byte-identical to the serial enumeration for
// every worker count:
//
//   - each seed's expansion is an independent subtree of the search, so a
//     worker enumerating seed i emits exactly the sub-stream the serial
//     pass would emit at position i;
//   - workers append each seed's cliques as one contiguous run of their
//     own list and record the run under the seed's index, never into a
//     shared stream, so scheduling cannot reorder anything;
//   - the runs are concatenated in seed order, truncated at limit, and
//     sorted lexicographically — reproducing the serial stream (and its
//     exact limit cutoff) regardless of how seeds were interleaved.
//
// A worker cannot know where the global limit falls while earlier seeds
// are still running, so each seed caps its own run at limit and the
// concatenation re-applies the exact global cut; with a small limit on a
// graph with many productive seeds this enumerates up to seeds×limit
// cliques where the serial pass stops at limit. The limit path is a
// safety valve for pathological graphs, not the steady state, so the
// bound is acceptable.
//
// workers ≤ 1 (and the degenerate limit == 0, whose cutoff the serial
// stop predicate only applies after the first emission) delegate to the
// serial enumeration.
func (g *Graph) MaximalCliquesParallel(minSize, limit, workers int) [][]int {
	s := g.cliqueSeeds(minSize)
	n := s.numSeeds()
	if workers > n {
		workers = n
	}
	if workers <= 1 || limit == 0 {
		return s.collect(limit)
	}
	// Seed i's cliques are ws[runs[i].w].list[runs[i].lo:runs[i].hi]: one
	// growing list per worker rather than a slice per seed keeps the
	// per-seed cost allocation-free.
	type run struct{ w, lo, hi int }
	type worker struct {
		e    bkEnum
		list [][]int
		lo   int
		emit func([]int) bool
	}
	runs := make([]run, n)
	ws := make([]worker, workers)
	for w := range ws {
		k := &ws[w]
		k.emit = func(c []int) bool {
			k.list = append(k.list, slices.Clone(c))
			return limit < 0 || len(k.list)-k.lo < limit
		}
	}
	par.Do(n, workers, func(w, i int) {
		k := &ws[w]
		k.lo = len(k.list)
		s.enumSeed(i, &k.e, k.emit)
		runs[i] = run{w, k.lo, len(k.list)}
	})
	var out [][]int
	for _, r := range runs {
		b := ws[r.w].list[r.lo:r.hi]
		if limit >= 0 && len(out)+len(b) >= limit {
			out = append(out, b[:limit-len(out)]...)
			break
		}
		out = append(out, b...)
	}
	slices.SortFunc(out, cmpIntSlice)
	return out
}
