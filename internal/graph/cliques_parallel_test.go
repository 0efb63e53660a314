package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomTestGraph builds a seeded multi-component G(n, p)-style graph with
// a planted dense core, the shapes that exercise both the per-seed
// fan-out and the bitset rows.
func randomTestGraph(t *testing.T, n int, p float64, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddWeight(u, v, 1+rng.Intn(3))
			}
		}
	}
	// Plant a clique over every fourth node so maximal cliques overlap.
	for u := 0; u < n; u += 4 {
		for v := u + 4; v < n && v < u+20; v += 4 {
			if !g.HasEdge(u, v) {
				g.AddWeight(u, v, 1)
			}
		}
	}
	return g
}

func TestMaximalCliquesParallelMatchesSerial(t *testing.T) {
	graphs := map[string]*Graph{
		"sparse":    randomTestGraph(t, 60, 0.05, 1),
		"medium":    randomTestGraph(t, 48, 0.2, 2),
		"dense":     randomTestGraph(t, 28, 0.5, 3),
		"empty":     New(10),
		"singleton": New(1),
	}
	for name, g := range graphs {
		serialAll := g.MaximalCliquesLimit(2, -1)
		limits := []int{-1, 1, 2, 7, len(serialAll), len(serialAll) + 10}
		for _, workers := range []int{1, 2, 3, 8, 64} {
			for _, limit := range limits {
				want := g.MaximalCliquesLimit(2, limit)
				got := g.MaximalCliquesParallel(2, limit, workers)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: workers=%d limit=%d: parallel enumeration diverged: got %d cliques, want %d",
						name, workers, limit, len(got), len(want))
				}
			}
		}
	}
}

// TestCliqueSeederStreamMatchesEachMaximalClique pins the seeder contract
// the parallel paths are built on: running every seed in index order
// reproduces the EachMaximalClique stream element for element.
func TestCliqueSeederStreamMatchesEachMaximalClique(t *testing.T) {
	g := randomTestGraph(t, 40, 0.15, 7)
	var want [][]int
	g.EachMaximalClique(2, func(c []int) bool {
		want = append(want, append([]int(nil), c...))
		return true
	})
	s := g.cliqueSeeds(2)
	var e bkEnum
	var got [][]int
	for i := 0; i < s.numSeeds(); i++ {
		if !s.enumSeed(i, &e, func(c []int) bool {
			got = append(got, append([]int(nil), c...))
			return true
		}) {
			t.Fatalf("enumSeed(%d) reported an early stop without fn asking for one", i)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("seed-by-seed stream diverged: got %d cliques, want %d", len(got), len(want))
	}
}
