package features

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"marioh/internal/graph"
	"marioh/internal/hypergraph"
)

func testGraph() *graph.Graph {
	// Triangle {0,1,2} with ω=2 on every edge plus pendant 3 on node 0.
	h := hypergraph.New(4)
	h.AddMult([]int{0, 1, 2}, 2)
	h.Add([]int{0, 3})
	return h.Project()
}

func TestDims(t *testing.T) {
	g := testGraph()
	for _, f := range []Featurizer{Marioh{}, ShyreCount{}, ShyreMotif{}} {
		got := f.Features(g, []int{0, 1, 2}, true)
		if len(got) != f.Dim() {
			t.Fatalf("%s: len(features) = %d, Dim() = %d", f.Name(), len(got), f.Dim())
		}
	}
}

func TestMariohFeatureValues(t *testing.T) {
	g := testGraph()
	f := Marioh{}.Features(g, []int{0, 1, 2}, true)
	// Node weighted degrees: 0 → 2+2+1=5, 1 → 4, 2 → 4.
	// agg(sum, mean, min, max, std) of [5 4 4]:
	if f[0] != 13 {
		t.Fatalf("node sum = %v, want 13", f[0])
	}
	if math.Abs(f[1]-13.0/3) > 1e-12 {
		t.Fatalf("node mean = %v", f[1])
	}
	if f[2] != 4 || f[3] != 5 {
		t.Fatalf("node min/max = %v/%v", f[2], f[3])
	}
	// Edge ω: all three edges have ω=2 → sum 6, std 0.
	if f[5] != 6 || f[9] != 0 {
		t.Fatalf("edge ω agg = %v (sum), %v (std)", f[5], f[9])
	}
	// MHH(0,1) = min(ω02, ω12) = 2, same for all edges of the triangle.
	if f[10] != 6 {
		t.Fatalf("MHH sum = %v, want 6", f[10])
	}
	// MHH/ω = 1 for every edge.
	if f[15] != 3 || f[16] != 1 {
		t.Fatalf("ratio sum/mean = %v/%v", f[15], f[16])
	}
	// Clique-level: size 3, cut ratio internal/external = 6/(13−6),
	// maximal flag 1.
	if f[20] != 3 {
		t.Fatalf("size = %v", f[20])
	}
	if math.Abs(f[21]-6.0/7) > 1e-12 {
		t.Fatalf("cut ratio = %v, want 6/7", f[21])
	}
	if f[22] != 1 {
		t.Fatalf("maximal flag = %v", f[22])
	}
}

func TestMaximalFlagPropagates(t *testing.T) {
	g := testGraph()
	a := Marioh{}.Features(g, []int{0, 1, 2}, true)
	b := Marioh{}.Features(g, []int{0, 1, 2}, false)
	if a[22] != 1 || b[22] != 0 {
		t.Fatal("maximal indicator not set from the argument")
	}
}

func TestShyreCountIgnoresMultiplicity(t *testing.T) {
	// Two graphs with identical topology but different weights must give
	// identical SHyRe-Count features (it is multiplicity-blind).
	h1 := hypergraph.New(3)
	h1.Add([]int{0, 1, 2})
	g1 := h1.Project()
	h2 := hypergraph.New(3)
	h2.AddMult([]int{0, 1, 2}, 7)
	g2 := h2.Project()
	a := ShyreCount{}.Features(g1, []int{0, 1, 2}, true)
	b := ShyreCount{}.Features(g2, []int{0, 1, 2}, true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("feature %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	// While MARIOH features must differ.
	am := Marioh{}.Features(g1, []int{0, 1, 2}, true)
	bm := Marioh{}.Features(g2, []int{0, 1, 2}, true)
	same := true
	for i := range am {
		if am[i] != bm[i] {
			same = false
		}
	}
	if same {
		t.Fatal("MARIOH features must be multiplicity sensitive")
	}
}

func TestShyreMotifExtendsCount(t *testing.T) {
	g := testGraph()
	c := ShyreCount{}.Features(g, []int{0, 1}, false)
	m := ShyreMotif{}.Features(g, []int{0, 1}, false)
	if len(m) != len(c)+5 {
		t.Fatalf("motif dims = %d, want count+5 = %d", len(m), len(c)+5)
	}
	for i := range c {
		if m[i] != c[i] {
			t.Fatalf("motif prefix differs at %d", i)
		}
	}
}

func TestSize2CliqueFeatures(t *testing.T) {
	g := testGraph()
	f := Marioh{}.Features(g, []int{0, 3}, true)
	if len(f) != 23 {
		t.Fatalf("dim = %d", len(f))
	}
	// ω(0,3) = 1, MHH = 0 (no common neighbors).
	if f[5] != 1 || f[10] != 0 {
		t.Fatalf("size-2 edge features: ω sum = %v, MHH sum = %v", f[5], f[10])
	}
}

func TestMariohNoMHHDropsMHHFamilies(t *testing.T) {
	g := testGraph()
	f := MariohNoMHH{}.Features(g, []int{0, 1, 2}, true)
	if len(f) != (MariohNoMHH{}).Dim() {
		t.Fatalf("dim mismatch: %d", len(f))
	}
	full := Marioh{}.Features(g, []int{0, 1, 2}, true)
	// Node aggregates and ω aggregates must agree with the full set.
	for i := 0; i < 10; i++ {
		if f[i] != full[i] {
			t.Fatalf("shared prefix differs at %d: %v vs %v", i, f[i], full[i])
		}
	}
	// Clique-level scalars must agree with the full set's tail.
	for i := 0; i < 3; i++ {
		if f[10+i] != full[20+i] {
			t.Fatalf("clique-level feature %d differs", i)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"marioh", "marioh-nomhh", "shyre-count", "shyre-motif"} {
		f, ok := ByName(name)
		if !ok || f.Name() != name {
			t.Fatalf("ByName(%q) failed", name)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("unknown name must fail")
	}
}

func TestAggStatsEmpty(t *testing.T) {
	out := aggStats(nil, nil)
	if len(out) != 5 {
		t.Fatalf("empty agg len = %d", len(out))
	}
	for _, v := range out {
		if v != 0 {
			t.Fatal("empty agg must be zeros")
		}
	}
}

// TestPinnedParentFeaturesBitIdentical: features of sub-cliques computed
// through a pinned parent's pair statistics are bit-identical to a fresh
// Compute, for every built-in featurizer. The graphs are projections of
// random hypergraphs plus a hub joined to most nodes (degree past the
// dense-bitset threshold of 64), and, after the parents are enumerated,
// random cliques are consumed the way Phase 1 consumes accepted ones —
// so many parents have lost edges and are no longer cliques when their
// sub-cliques are scored. Subs of every size k ∈ [2, |q|−1] are drawn,
// sorted as the search draws them and shuffled; a query outside the
// parent falls back to a sweep.
func TestPinnedParentFeaturesBitIdentical(t *testing.T) {
	var pinned, fresh Scratch
	brokenParents, hubRows := 0, 0
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := 80 + rng.Intn(120)
		h := hypergraph.New(n)
		for e := 0; e < 3*n; e++ {
			k := 2 + rng.Intn(5)
			base := rng.Intn(n - 8)
			nodes := make([]int, k)
			for i := range nodes {
				nodes[i] = base + rng.Intn(8)
			}
			if len(uniq(nodes)) >= 2 {
				h.AddMult(nodes, 1+rng.Intn(3))
			}
		}
		hub := rng.Intn(n)
		for v := 0; v < n; v++ {
			if v != hub && rng.Float64() < 0.8 {
				h.AddMult([]int{hub, v}, 1+rng.Intn(2))
			}
		}
		g := h.Project()
		if g.Degree(hub) >= 64 {
			hubRows++
		}
		var parents [][]int
		cliques := g.MaximalCliques(2)
		for _, q := range cliques {
			if len(q) >= 3 {
				parents = append(parents, q)
			}
		}
		// Phase-1-style consumption: decrement every edge of random
		// cliques that are still intact.
		for _, q := range cliques {
			if rng.Float64() < 0.3 && isClique(g, q) {
				for i := 0; i < len(q); i++ {
					for j := i + 1; j < len(q); j++ {
						g.AddWeight(q[i], q[j], -1)
					}
				}
			}
		}
		for _, q := range parents {
			if !isClique(g, q) {
				brokenParents++
			}
			pinned.Pin(g, q)
			for k := 2; k <= len(q)-1; k++ {
				for rep := 0; rep < 2; rep++ {
					sub := append([]int(nil), q...)
					rng.Shuffle(len(sub), func(a, b int) { sub[a], sub[b] = sub[b], sub[a] })
					sub = sub[:k]
					if rep == 0 {
						sort.Ints(sub)
					}
					checkSameFeatures(t, &pinned, &fresh, g, sub)
				}
			}
			// A query reaching outside the parent is swept, not indexed.
			outside := append(append([]int(nil), q[:2]...), (q[len(q)-1]+1)%n)
			if len(uniq(outside)) == 3 {
				checkSameFeatures(t, &pinned, &fresh, g, outside)
			}
			pinned.Unpin()
		}
	}
	t.Logf("%d parents lost edges; %d graphs had a bitset hub", brokenParents, hubRows)
	if brokenParents == 0 || hubRows == 0 {
		t.Fatalf("coverage: %d parents lost edges, %d graphs had a bitset hub; want both > 0", brokenParents, hubRows)
	}
}

func checkSameFeatures(t *testing.T, pinned, fresh *Scratch, g *graph.Graph, q []int) {
	t.Helper()
	for _, name := range []string{"marioh", "marioh-nomhh", "shyre-count", "shyre-motif"} {
		f, _ := ByName(name)
		got := append([]float64(nil), Compute(f, pinned, g, q, false)...)
		want := Compute(f, fresh, g, q, false)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s q=%v dim %d: pinned %v, fresh %v", name, q, i, got[i], want[i])
			}
		}
	}
}

func isClique(g *graph.Graph, q []int) bool {
	for i := 0; i < len(q); i++ {
		for j := i + 1; j < len(q); j++ {
			if !g.HasEdge(q[i], q[j]) {
				return false
			}
		}
	}
	return true
}

func uniq(s []int) []int {
	c := append([]int(nil), s...)
	sort.Ints(c)
	return slices.Compact(c)
}
