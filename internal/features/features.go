// Package features implements the clique feature representations used by
// the classifiers in this repository: MARIOH's multiplicity-aware features
// (Sect. III-D of the paper) and the structural feature sets of the
// SHyRe-Count and SHyRe-Motif baselines (Wang & Kleinberg, ICLR 2024),
// which deliberately ignore edge multiplicity.
//
// All featurizers consume a clique of the (possibly residual) projected
// graph plus a flag telling whether the clique is maximal, and emit a
// fixed-width float vector. Node- and edge-level feature families are
// summarized into five aggregates each — sum, mean, min, max, and standard
// deviation — exactly as the paper prescribes.
//
// Every built-in featurizer also implements AppendFeaturizer, the
// allocation-free path: Compute with a per-worker Scratch reuses staging
// and output buffers, so scoring a clique in the steady state performs no
// heap allocations. Custom featurizers that only implement Featurizer keep
// working through the same entry point at the cost of an allocation.
package features

import (
	"math"

	"marioh/internal/graph"
)

// Featurizer turns a clique into a fixed-width feature vector.
type Featurizer interface {
	// Name identifies the featurizer in logs and serialized models.
	Name() string
	// Dim is the feature vector width.
	Dim() int
	// Features computes the vector for clique Q of g. maximal tells whether
	// Q is a maximal clique of the graph it was enumerated from.
	Features(g *graph.Graph, clique []int, maximal bool) []float64
}

// AppendFeaturizer is the allocation-free extension of Featurizer: the
// vector is appended to dst and temporaries come from the caller's Scratch.
type AppendFeaturizer interface {
	Featurizer
	// AppendFeatures appends exactly Dim() values — the same values
	// Features would return — to dst and returns the extended slice.
	AppendFeatures(dst []float64, s *Scratch, g *graph.Graph, clique []int, maximal bool) []float64
}

// Scratch holds the reusable buffers of one feature-extraction worker. It
// must not be shared between goroutines. The zero value is ready to use.
type Scratch struct {
	node, edge1, edge2, edge3 []float64 // value-family staging
	out                       []float64 // Compute's result buffer
	pair                      graph.PairScratch
}

// Pin makes pair statistics of later cliques drawn from parent come from
// one sweep of parent on g, until Unpin (see graph.PairScratch.Pin). The
// features are bit-identical to unpinned ones; scoring many sub-cliques of
// one clique gets cheaper. g must not change while pinned.
func (s *Scratch) Pin(g *graph.Graph, parent []int) { s.pair.Pin(g, parent) }

// Unpin drops the pin set by Pin.
func (s *Scratch) Unpin() { s.pair.Unpin() }

// Compute evaluates f on the clique. When f supports the allocation-free
// path the result lives in s's reusable output buffer and is only valid
// until the next Compute call with the same Scratch; otherwise it falls
// back to f.Features.
func Compute(f Featurizer, s *Scratch, g *graph.Graph, clique []int, maximal bool) []float64 {
	if af, ok := f.(AppendFeaturizer); ok {
		s.out = af.AppendFeatures(s.out[:0], s, g, clique, maximal)
		return s.out
	}
	return f.Features(g, clique, maximal)
}

// stage returns a zero-length slice with capacity ≥ n backed by *p, growing
// the backing array only when needed.
func stage(p *[]float64, n int) []float64 {
	if cap(*p) < n {
		*p = make([]float64, 0, n)
	}
	return (*p)[:0]
}

// aggStats appends the five-dimensional aggregate (sum, mean, min, max,
// std) of vals to dst and returns dst. Empty input yields five zeros.
func aggStats(dst []float64, vals []float64) []float64 {
	if len(vals) == 0 {
		return append(dst, 0, 0, 0, 0, 0)
	}
	sum, mn, mx := 0.0, vals[0], vals[0]
	for _, v := range vals {
		sum += v
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	mean := sum / float64(len(vals))
	varr := 0.0
	for _, v := range vals {
		d := v - mean
		varr += d * d
	}
	std := math.Sqrt(varr / float64(len(vals)))
	return append(dst, sum, mean, mn, mx, std)
}

// Marioh is the multiplicity-aware featurizer of the MARIOH paper:
//
//   - node level: weighted degree of each clique node              → 5 dims
//   - edge level: ω(u,v), MHH(u,v), MHH(u,v)/ω(u,v) per clique edge → 15 dims
//   - clique level: |Q|, clique cut ratio, maximality indicator    → 3 dims
//
// for a total of 23 dimensions.
type Marioh struct{}

// Name implements Featurizer.
func (Marioh) Name() string { return "marioh" }

// Dim implements Featurizer.
func (Marioh) Dim() int { return 23 }

// Features implements Featurizer.
func (m Marioh) Features(g *graph.Graph, q []int, maximal bool) []float64 {
	var s Scratch
	return m.AppendFeatures(make([]float64, 0, 23), &s, g, q, maximal)
}

// AppendFeatures implements AppendFeaturizer.
func (Marioh) AppendFeatures(dst []float64, s *Scratch, g *graph.Graph, q []int, maximal bool) []float64 {
	nodeVals := stage(&s.node, len(q))
	sumWDeg := 0.0
	for _, u := range q {
		wd := float64(g.WeightedDegree(u))
		nodeVals = append(nodeVals, wd)
		sumWDeg += wd
	}
	dst = aggStats(dst, nodeVals)

	nEdges := len(q) * (len(q) - 1) / 2
	omega := stage(&s.edge1, nEdges)
	mhh := stage(&s.edge2, nEdges)
	ratio := stage(&s.edge3, nEdges)
	internal := 0.0
	pairW, pairMHH := g.CliquePairStats(q, &s.pair)
	for p := range pairW {
		w := float64(pairW[p])
		m := float64(pairMHH[p])
		omega = append(omega, w)
		mhh = append(mhh, m)
		if w > 0 {
			ratio = append(ratio, m/w)
		} else {
			ratio = append(ratio, 0)
		}
		internal += w
	}
	dst = aggStats(dst, omega)
	dst = aggStats(dst, mhh)
	dst = aggStats(dst, ratio)

	dst = append(dst, float64(len(q)))
	dst = append(dst, cutRatio(internal, sumWDeg))
	if maximal {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	return dst
}

// cutRatio is the clique cut ratio: the proportion of edge multiplicity
// inside the clique relative to the total edge multiplicity touching the
// clique's nodes. Internal edges are counted twice in the weighted-degree
// sum, so the denominator subtracts one copy to count each incident edge
// exactly once.
func cutRatio(internal, sumWDeg float64) float64 {
	den := sumWDeg - internal
	if den <= 0 {
		return 1
	}
	return internal / den
}

// ShyreCount reproduces the multiplicity-blind structural ("count")
// features of SHyRe-Count:
//
//   - clique size and maximality indicator                → 2 dims
//   - unweighted node degrees                             → 5 dims
//   - per-edge common-neighbor counts                     → 5 dims
//   - unweighted cut ratio                                → 1 dim
//
// for a total of 13 dimensions. MARIOH-M plugs this featurizer into the
// MARIOH search to ablate the multiplicity-aware features.
type ShyreCount struct{}

// Name implements Featurizer.
func (ShyreCount) Name() string { return "shyre-count" }

// Dim implements Featurizer.
func (ShyreCount) Dim() int { return 13 }

// Features implements Featurizer.
func (f ShyreCount) Features(g *graph.Graph, q []int, maximal bool) []float64 {
	var s Scratch
	return f.AppendFeatures(make([]float64, 0, 13), &s, g, q, maximal)
}

// AppendFeatures implements AppendFeaturizer.
func (ShyreCount) AppendFeatures(dst []float64, s *Scratch, g *graph.Graph, q []int, maximal bool) []float64 {
	cn := commonNeighborCounts(stage(&s.edge1, len(q)*(len(q)-1)/2), g, q)
	return appendShyreCount(dst, s, g, q, maximal, cn)
}

// appendShyreCount appends the 13 ShyreCount dimensions, taking the
// per-edge common-neighbor counts from the caller so ShyreMotif can share
// one computation between its triangle and square families.
func appendShyreCount(dst []float64, s *Scratch, g *graph.Graph, q []int, maximal bool, cn []float64) []float64 {
	dst = append(dst, float64(len(q)))
	if maximal {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	deg := stage(&s.node, len(q))
	sumDeg := 0.0
	for _, u := range q {
		d := float64(g.Degree(u))
		deg = append(deg, d)
		sumDeg += d
	}
	dst = aggStats(dst, deg)
	dst = aggStats(dst, cn)
	internal := float64(len(q) * (len(q) - 1) / 2)
	dst = append(dst, cutRatio(internal, sumDeg))
	return dst
}

// commonNeighborCounts appends |N(q_i) ∩ N(q_j)| for every clique pair to
// dst. CountCommonNeighbors avoids materializing (and sorting) the
// intersection just to take its length.
func commonNeighborCounts(dst []float64, g *graph.Graph, q []int) []float64 {
	for i := 0; i < len(q); i++ {
		for j := i + 1; j < len(q); j++ {
			dst = append(dst, float64(g.CountCommonNeighbors(q[i], q[j])))
		}
	}
	return dst
}

// ShyreMotif extends ShyreCount with local motif statistics, following
// SHyRe-Motif's use of triangle and square (4-cycle) patterns around the
// candidate clique:
//
//   - per-edge triangle counts (= common neighbors)        → shared with count
//   - per-edge 4-cycle counts C(cn, 2) through each edge   → 5 extra dims
//
// for a total of 18 dimensions. The common-neighbor counts are computed
// once and shared between the two motif families.
type ShyreMotif struct{}

// Name implements Featurizer.
func (ShyreMotif) Name() string { return "shyre-motif" }

// Dim implements Featurizer.
func (ShyreMotif) Dim() int { return 18 }

// Features implements Featurizer.
func (f ShyreMotif) Features(g *graph.Graph, q []int, maximal bool) []float64 {
	var s Scratch
	return f.AppendFeatures(make([]float64, 0, 18), &s, g, q, maximal)
}

// AppendFeatures implements AppendFeaturizer.
func (ShyreMotif) AppendFeatures(dst []float64, s *Scratch, g *graph.Graph, q []int, maximal bool) []float64 {
	nEdges := len(q) * (len(q) - 1) / 2
	cn := commonNeighborCounts(stage(&s.edge1, nEdges), g, q)
	dst = appendShyreCount(dst, s, g, q, maximal, cn)
	squares := stage(&s.edge2, nEdges)
	for _, c := range cn {
		squares = append(squares, c*(c-1)/2)
	}
	return aggStats(dst, squares)
}

// ByName returns the featurizer registered under the given name.
func ByName(name string) (Featurizer, bool) {
	switch name {
	case "marioh":
		return Marioh{}, true
	case "marioh-nomhh":
		return MariohNoMHH{}, true
	case "shyre-count":
		return ShyreCount{}, true
	case "shyre-motif":
		return ShyreMotif{}, true
	}
	return nil, false
}
