package baselines

import (
	"math/rand"
	"time"

	"marioh/internal/core"
	"marioh/internal/features"
	"marioh/internal/graph"
	"marioh/internal/hypergraph"
)

// Shyre is the supervised hypergraph-reconstruction baseline of Wang &
// Kleinberg (ICLR 2024). Training estimates ρ(n, k) — the expected number
// of size-k hyperedges inside a size-n maximal clique of the source
// projected graph — and fits a clique classifier on structural features
// (SHyRe-Count) or structural + motif features (SHyRe-Motif). At inference
// time each maximal clique of the target graph yields itself plus
// ρ(n, k)-many sampled k-sub-cliques as candidates; candidates the
// classifier scores above 0.5 become hyperedges. Because candidates come
// from sampling, hyperedges that are never sampled are missed — the false
// negatives the paper attributes to SHyRe — and edge multiplicity is
// ignored throughout.
type Shyre struct {
	// Motif switches from count features to motif features.
	Motif bool
	// Oversample multiplies ρ(n,k) when drawing candidate sub-cliques;
	// default 1.
	Oversample float64
	// MaxCliqueLimit caps maximal-clique enumeration; ≤ 0 = 200000.
	MaxCliqueLimit int
	Seed           int64
	// Deadline aborts long runs with ErrTimeout (zero = none).
	Deadline time.Time

	model *core.Model
	rho   map[[2]int]float64 // (n, k) -> expected count
}

// Name implements Method.
func (s *Shyre) Name() string {
	if s.Motif {
		return "SHyRe-Motif"
	}
	return "SHyRe-Count"
}

func (s *Shyre) featurizer() features.Featurizer {
	if s.Motif {
		return features.ShyreMotif{}
	}
	return features.ShyreCount{}
}

func (s *Shyre) limit() int {
	if s.MaxCliqueLimit > 0 {
		return s.MaxCliqueLimit
	}
	return 200000
}

// Train learns ρ(n,k) and the clique classifier from the source pair.
func (s *Shyre) Train(gSrc *graph.Graph, hSrc *hypergraph.Hypergraph) {
	s.model = core.Train(gSrc, hSrc, core.TrainOptions{
		Featurizer: s.featurizer(),
		Seed:       s.Seed,
	})

	// ρ(n,k): average number of size-k hyperedges contained in a size-n
	// maximal clique. Hyperedge containment is tested via a node→hyperedges
	// index to stay near-linear.
	s.rho = make(map[[2]int]float64)
	cliques := gSrc.MaximalCliquesLimit(2, s.limit())
	countN := make(map[int]int)
	edgeIndex := buildNodeIndex(hSrc)
	for _, q := range cliques {
		countN[len(q)]++
		for _, em := range containedHyperedges(edgeIndex, q) {
			s.rho[[2]int{len(q), len(em)}]++
		}
	}
	for nk, c := range s.rho {
		s.rho[nk] = c / float64(countN[nk[0]])
	}
}

// nodeIndex lists the unique hyperedges of a hypergraph with, per node,
// the positions of the hyperedges containing it.
type nodeIndex struct {
	edges  [][]int
	byNode map[int][]int
}

func buildNodeIndex(h *hypergraph.Hypergraph) nodeIndex {
	idx := nodeIndex{edges: h.UniqueEdges(), byNode: make(map[int][]int)}
	for i, e := range idx.edges {
		for _, u := range e {
			idx.byNode[u] = append(idx.byNode[u], i)
		}
	}
	return idx
}

// containedHyperedges returns the unique hyperedges of the indexed
// hypergraph fully contained in clique q.
func containedHyperedges(idx nodeIndex, q []int) [][]int {
	inQ := make(map[int]bool, len(q))
	for _, u := range q {
		inQ[u] = true
	}
	seen := make(map[int]bool)
	var out [][]int
	for _, u := range q {
		for _, i := range idx.byNode[u] {
			if seen[i] {
				continue
			}
			seen[i] = true
			e := idx.edges[i]
			ok := true
			for _, v := range e {
				if !inQ[v] {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, e)
			}
		}
	}
	return out
}

// TrainStats exposes the classifier's training-time breakdown (used by the
// Fig. 6 runtime-breakdown experiment). Valid after Train.
func (s *Shyre) TrainStats() core.TrainStats {
	if s.model == nil {
		return core.TrainStats{}
	}
	return s.model.Stats
}

// Reconstruct implements Method. Train must have been called first.
func (s *Shyre) Reconstruct(g *graph.Graph) (*hypergraph.Hypergraph, error) {
	if s.model == nil {
		panic("baselines: Shyre.Reconstruct called before Train")
	}
	over := s.Oversample
	if over <= 0 {
		over = 1
	}
	stop := deadlineChecker(s.Deadline)
	rng := rand.New(rand.NewSource(s.Seed + 17))
	rec := hypergraph.New(g.NumNodes())
	cliques := g.MaximalCliquesLimit(2, s.limit())
	var ps core.PermSampler

	accept := func(q []int, maximal bool) {
		if rec.Contains(q) {
			return
		}
		if s.model.Score(g, q, maximal) > 0.5 {
			rec.Add(q)
		}
	}
	for _, q := range cliques {
		if stop() {
			return rec, ErrTimeout
		}
		accept(q, true)
		n := len(q)
		for k := 2; k < n; k++ {
			expect := s.rho[[2]int{n, k}] * over
			draws := int(expect)
			if rng.Float64() < expect-float64(draws) {
				draws++
			}
			for d := 0; d < draws; d++ {
				sub := ps.Sample(q, k, rng)
				accept(sub, false)
			}
		}
	}
	return rec, nil
}
