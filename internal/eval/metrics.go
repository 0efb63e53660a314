// Package eval implements every evaluation metric used in the MARIOH
// paper: Jaccard and multi-Jaccard similarity between hypergraphs
// (Sect. II-B), the normalized difference and Kolmogorov–Smirnov
// D-statistic of the structural-preservation study (Table IV), and the
// downstream-task metrics NMI, AUC, and micro/macro F1 (Tables VII–IX).
package eval

import (
	"math"
	"sort"

	"marioh/internal/hypergraph"
)

// Jaccard returns |E_a ∩ E_b| / |E_a ∪ E_b| over the sets of unique
// hyperedges — the paper's reconstruction-accuracy measure for the
// multiplicity-reduced setting. Two empty hypergraphs have similarity 1.
func Jaccard(a, b *hypergraph.Hypergraph) float64 {
	na, nb := a.NumUnique(), b.NumUnique()
	if na == 0 && nb == 0 {
		return 1
	}
	inter := 0
	small, large := a, b
	if nb < na {
		small, large = b, a
	}
	small.Each(func(nodes []int, _ int) {
		if large.Contains(nodes) {
			inter++
		}
	})
	return float64(inter) / float64(na+nb-inter)
}

// MultiJaccard returns Σ_e min(M_a(e), M_b(e)) / Σ_e max(M_a(e), M_b(e))
// over the union of unique hyperedges — the multiplicity-preserved
// accuracy measure (multi-Jaccard similarity, da Fontoura Costa).
func MultiJaccard(a, b *hypergraph.Hypergraph) float64 {
	if a.NumUnique() == 0 && b.NumUnique() == 0 {
		return 1
	}
	sumMin, sumMax := 0, 0
	a.Each(func(nodes []int, ma int) {
		mb := b.Multiplicity(nodes)
		sumMin += min(ma, mb)
		sumMax += max(ma, mb)
	})
	b.Each(func(nodes []int, mb int) {
		if !a.Contains(nodes) {
			sumMax += mb
		}
	})
	if sumMax == 0 {
		return 0
	}
	return float64(sumMin) / float64(sumMax)
}

// NormalizedDiff returns |x − y| / max(x, y), the scalar-property
// preservation error of Table IV (0 when both are 0).
func NormalizedDiff(x, y float64) float64 {
	m := math.Max(math.Abs(x), math.Abs(y))
	if m == 0 {
		return 0
	}
	return math.Abs(x-y) / m
}

// KSStatistic returns the two-sample Kolmogorov–Smirnov D-statistic: the
// maximum absolute difference between the empirical CDFs of a and b.
// Either sample being empty yields 1 unless both are empty (0).
func KSStatistic(a, b []float64) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	if len(a) == 0 || len(b) == 0 {
		return 1
	}
	as := append([]float64(nil), a...)
	bs := append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)
	i, j := 0, 0
	d := 0.0
	for i < len(as) && j < len(bs) {
		var x float64
		if as[i] <= bs[j] {
			x = as[i]
		} else {
			x = bs[j]
		}
		for i < len(as) && as[i] <= x {
			i++
		}
		for j < len(bs) && bs[j] <= x {
			j++
		}
		diff := math.Abs(float64(i)/float64(len(as)) - float64(j)/float64(len(bs)))
		if diff > d {
			d = diff
		}
	}
	return d
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
