package hypergraph

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestKeyRoundTrip(t *testing.T) {
	cases := [][]int{{0}, {1, 2}, {5, 3, 9}, {0, 100, 10000}, {7, 7, 7}}
	for _, c := range cases {
		k := Key(c)
		got := DecodeKey(k)
		want := dedupSorted(c)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Key round trip %v: got %v want %v", c, got, want)
		}
	}
}

func dedupSorted(s []int) []int {
	c := append([]int(nil), s...)
	sort.Ints(c)
	out := c[:0]
	for i, v := range c {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return append([]int(nil), out...)
}

func TestKeySetSemantics(t *testing.T) {
	if Key([]int{3, 1, 2}) != Key([]int{2, 3, 1}) {
		t.Fatal("Key should be order independent")
	}
	if Key([]int{1, 1, 2}) != Key([]int{1, 2}) {
		t.Fatal("Key should ignore duplicates")
	}
	if Key([]int{1, 2}) == Key([]int{1, 3}) {
		t.Fatal("distinct sets must have distinct keys")
	}
}

func TestKeySortedPanicsOnUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unsorted input")
		}
	}()
	KeySorted([]int{2, 1})
}

func TestQuickKeyInjective(t *testing.T) {
	f := func(a, b []uint8) bool {
		ai := toInts(a)
		bi := toInts(b)
		if len(ai) == 0 || len(bi) == 0 {
			return true
		}
		ka, kb := Key(ai), Key(bi)
		sameSet := reflect.DeepEqual(dedupSorted(ai), dedupSorted(bi))
		return (ka == kb) == sameSet
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func toInts(a []uint8) []int {
	out := make([]int, len(a))
	for i, v := range a {
		out[i] = int(v)
	}
	return out
}

func TestAddAndMultiplicity(t *testing.T) {
	h := New(5)
	h.Add([]int{0, 1})
	h.Add([]int{1, 0}) // same set
	h.AddMult([]int{1, 2, 3}, 4)
	if h.NumUnique() != 2 {
		t.Fatalf("NumUnique = %d, want 2", h.NumUnique())
	}
	if h.NumTotal() != 6 {
		t.Fatalf("NumTotal = %d, want 6", h.NumTotal())
	}
	if h.Multiplicity([]int{0, 1}) != 2 {
		t.Fatalf("mult({0,1}) = %d, want 2", h.Multiplicity([]int{0, 1}))
	}
	if h.Multiplicity([]int{3, 2, 1}) != 4 {
		t.Fatalf("mult({1,2,3}) = %d, want 4", h.Multiplicity([]int{1, 2, 3}))
	}
	if h.Multiplicity([]int{0, 2}) != 0 {
		t.Fatal("absent edge should have multiplicity 0")
	}
	if h.SumSizes() != 2*2+3*4 {
		t.Fatalf("SumSizes = %d, want 16", h.SumSizes())
	}
	if got := h.AvgMultiplicity(); got != 3 {
		t.Fatalf("AvgMultiplicity = %v, want 3", got)
	}
}

func TestAddPanics(t *testing.T) {
	h := New(3)
	mustPanic(t, func() { h.Add([]int{1}) })
	mustPanic(t, func() { h.Add([]int{2, 2}) })
	mustPanic(t, func() { h.AddMult([]int{0, 1}, 0) })
	mustPanic(t, func() { h.Add([]int{-1, 2}) })
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

func TestNodeUniverseGrows(t *testing.T) {
	h := New(2)
	h.Add([]int{1, 9})
	if h.NumNodes() != 10 {
		t.Fatalf("NumNodes = %d, want 10", h.NumNodes())
	}
}

func TestReduced(t *testing.T) {
	h := New(4)
	h.AddMult([]int{0, 1}, 5)
	h.AddMult([]int{1, 2, 3}, 2)
	r := h.Reduced()
	if r.NumUnique() != 2 || r.NumTotal() != 2 {
		t.Fatalf("Reduced: unique=%d total=%d", r.NumUnique(), r.NumTotal())
	}
	if h.NumTotal() != 7 {
		t.Fatal("Reduced mutated the original")
	}
}

func TestProject(t *testing.T) {
	h := New(4)
	h.AddMult([]int{0, 1, 2}, 2) // each pair gets ω += 2
	h.Add([]int{1, 2})           // ω(1,2) += 1
	g := h.Project()
	if g.Weight(0, 1) != 2 || g.Weight(0, 2) != 2 {
		t.Fatalf("ω(0,1)=%d ω(0,2)=%d, want 2", g.Weight(0, 1), g.Weight(0, 2))
	}
	if g.Weight(1, 2) != 3 {
		t.Fatalf("ω(1,2) = %d, want 3", g.Weight(1, 2))
	}
	if g.NumEdges() != 3 {
		t.Fatalf("projection has %d edges, want 3", g.NumEdges())
	}
}

func TestCloneAndEqual(t *testing.T) {
	h := New(4)
	h.AddMult([]int{0, 1}, 2)
	h.Add([]int{0, 2, 3})
	c := h.Clone()
	if !h.Equal(c) || !c.Equal(h) {
		t.Fatal("clone not equal")
	}
	c.Add([]int{0, 1})
	if h.Equal(c) {
		t.Fatal("multiplicity change not detected")
	}
	d := h.Clone()
	d.Add([]int{1, 3})
	if h.Equal(d) {
		t.Fatal("extra edge not detected")
	}
}

func TestNodeDegreesAndCoveredNodes(t *testing.T) {
	h := New(5)
	h.AddMult([]int{0, 1}, 3)
	h.Add([]int{1, 2, 3})
	deg := h.NodeDegrees()
	want := []int{3, 4, 1, 1, 0}
	if !reflect.DeepEqual(deg, want) {
		t.Fatalf("NodeDegrees = %v, want %v", deg, want)
	}
	if h.CoveredNodes() != 4 {
		t.Fatalf("CoveredNodes = %d, want 4", h.CoveredNodes())
	}
}

func TestEdgeSizes(t *testing.T) {
	h := New(4)
	h.AddMult([]int{0, 1}, 2)
	h.Add([]int{1, 2, 3})
	sizes := h.EdgeSizes()
	sort.Ints(sizes)
	if !reflect.DeepEqual(sizes, []int{2, 2, 3}) {
		t.Fatalf("EdgeSizes = %v", sizes)
	}
}

func TestUniqueEdgesInsertionOrder(t *testing.T) {
	h := New(6)
	h.Add([]int{4, 5})
	h.Add([]int{0, 1})
	h.Add([]int{4, 5})
	edges := h.UniqueEdges()
	if !reflect.DeepEqual(edges, [][]int{{4, 5}, {0, 1}}) {
		t.Fatalf("UniqueEdges = %v", edges)
	}
}

// TestQuickProjectionWeights: for any random hypergraph, ω(u,v) equals the
// total multiplicity of hyperedges containing both u and v.
func TestQuickProjectionWeights(t *testing.T) {
	f := func(edges [][]uint8) bool {
		h := New(12)
		type em struct {
			nodes []int
		}
		var kept [][]int
		for _, e := range edges {
			nodes := dedupSorted(toInts(e))
			for i := range nodes {
				nodes[i] %= 12
			}
			nodes = dedupSorted(nodes)
			if len(nodes) < 2 {
				continue
			}
			h.Add(nodes)
			kept = append(kept, nodes)
		}
		if len(kept) == 0 {
			return true
		}
		g := h.Project()
		for u := 0; u < 12; u++ {
			for v := u + 1; v < 12; v++ {
				want := 0
				for _, e := range kept {
					if containsInt(e, u) && containsInt(e, v) {
						want++
					}
				}
				if g.Weight(u, v) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func TestScalarProperties(t *testing.T) {
	h := New(4)
	h.Add([]int{0, 1, 2}) // a closed triangle
	h.Add([]int{2, 3})
	p := h.Scalars()
	if p.NumNodes != 4 || p.NumHyperedges != 2 {
		t.Fatalf("nodes=%v hyperedges=%v", p.NumNodes, p.NumHyperedges)
	}
	if p.AvgEdgeSize != 2.5 {
		t.Fatalf("AvgEdgeSize = %v, want 2.5", p.AvgEdgeSize)
	}
	// degrees: 1,1,2,1 → avg 5/4
	if p.AvgNodeDegree != 1.25 {
		t.Fatalf("AvgNodeDegree = %v, want 1.25", p.AvgNodeDegree)
	}
	// The single projected triangle {0,1,2} is covered by the hyperedge.
	if p.SimplicialClosureRatio != 1 {
		t.Fatalf("SimplicialClosureRatio = %v, want 1", p.SimplicialClosureRatio)
	}
	if p.Density != 0.5 {
		t.Fatalf("Density = %v, want 0.5", p.Density)
	}
	if p.Overlapness != 1.25 {
		t.Fatalf("Overlapness = %v, want 1.25", p.Overlapness)
	}
}

func TestSimplicialClosureOpenTriangle(t *testing.T) {
	// Three pairwise hyperedges forming an open triangle.
	h := New(3)
	h.Add([]int{0, 1})
	h.Add([]int{1, 2})
	h.Add([]int{0, 2})
	if r := h.simplicialClosureRatio(); r != 0 {
		t.Fatalf("open triangle closure = %v, want 0", r)
	}
}

func TestDistributions(t *testing.T) {
	h := New(4)
	h.AddMult([]int{0, 1, 2}, 2)
	h.Add([]int{0, 3})
	if got := h.NodeDegreeDist(); len(got) != 4 {
		t.Fatalf("NodeDegreeDist size %d, want 4", len(got))
	}
	pd := h.NodePairDegreeDist()
	if len(pd) != 4 { // pairs: 01,02,12 (ω=2 each) and 03 (ω=1)
		t.Fatalf("NodePairDegreeDist size %d, want 4", len(pd))
	}
	td := h.NodeTripleDegreeDist()
	if len(td) != 1 || td[0] != 2 {
		t.Fatalf("NodeTripleDegreeDist = %v, want [2]", td)
	}
	hd := h.HomogeneityDist()
	if len(hd) != 2 {
		t.Fatalf("HomogeneityDist size %d, want 2", len(hd))
	}
}

func TestSingularValues(t *testing.T) {
	// A single hyperedge {0,1}: S = 1_e 1_eᵀ has eigenvalues {2, 0}, so the
	// top singular value is √2.
	h := New(2)
	h.Add([]int{0, 1})
	sv := h.SingularValues(2)
	if len(sv) < 1 {
		t.Fatal("no singular values returned")
	}
	if d := sv[0] - 1.4142135; d > 1e-3 || d < -1e-3 {
		t.Fatalf("top singular value = %v, want √2", sv[0])
	}
	// Values must be non-increasing.
	for i := 1; i < len(sv); i++ {
		if sv[i] > sv[i-1]+1e-9 {
			t.Fatalf("singular values not sorted: %v", sv)
		}
	}
}

// refHypergraph is the map-based model the compact storage is checked
// against: multiplicity per canonical key, keys in first-insertion order.
type refHypergraph struct {
	mult            map[string]int
	order           []string
	total, sumSizes int
}

func (r *refHypergraph) addMult(nodes []int, m int) {
	k := Key(nodes)
	if _, ok := r.mult[k]; !ok {
		r.order = append(r.order, k)
	}
	r.mult[k] += m
	r.total += m
	r.sumSizes += len(DecodeKey(k)) * m
}

// TestHypergraphMatchesReferenceModel drives random Add/AddMult sequences
// (unsorted input, repeated nodes, repeated hyperedges) through the
// compact storage and a map-based reference, and compares every read
// path: the counters, lookups by node set and by key, the insertion order
// of Each/UniqueEdges/EdgesWithMult/Keys, Equal, Clone, and a Write→Read
// round trip.
func TestHypergraphMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		universe := 4 + rng.Intn(40)
		randomSet := func() []int {
			k := 2 + rng.Intn(5)
			for {
				s := make([]int, k)
				for i := range s {
					s[i] = rng.Intn(universe)
				}
				if len(dedupSorted(s)) >= 2 {
					return s
				}
			}
		}
		h := New(0)
		ref := &refHypergraph{mult: map[string]int{}}
		steps := 50 + rng.Intn(500)
		for i := 0; i < steps; i++ {
			nodes := randomSet()
			if rng.Intn(3) == 0 && len(ref.order) > 0 {
				// Re-add a present hyperedge, shuffled.
				nodes = DecodeKey(ref.order[rng.Intn(len(ref.order))])
				rng.Shuffle(len(nodes), func(a, b int) { nodes[a], nodes[b] = nodes[b], nodes[a] })
			}
			before := append([]int(nil), nodes...)
			if m := 1 + rng.Intn(4); m == 1 && rng.Intn(2) == 0 {
				h.Add(nodes)
				ref.addMult(nodes, 1)
			} else {
				h.AddMult(nodes, m)
				ref.addMult(nodes, m)
			}
			if !reflect.DeepEqual(nodes, before) {
				t.Fatalf("seed %d: AddMult modified its input %v → %v", seed, before, nodes)
			}
		}

		if h.NumUnique() != len(ref.order) || h.NumTotal() != ref.total || h.SumSizes() != ref.sumSizes {
			t.Fatalf("seed %d: counters (%d, %d, %d), reference (%d, %d, %d)", seed,
				h.NumUnique(), h.NumTotal(), h.SumSizes(), len(ref.order), ref.total, ref.sumSizes)
		}
		if !reflect.DeepEqual(h.Keys(), ref.order) {
			t.Fatalf("seed %d: Keys order differs from insertion order", seed)
		}
		var each []string
		h.Each(func(nodes []int, mult int) {
			k := KeySorted(nodes)
			each = append(each, k)
			if mult != ref.mult[k] {
				t.Fatalf("seed %d: Each gives %v×%d, reference %d", seed, nodes, mult, ref.mult[k])
			}
		})
		if !reflect.DeepEqual(each, ref.order) {
			t.Fatalf("seed %d: Each order differs from insertion order", seed)
		}
		for i, e := range h.EdgesWithMult() {
			k := ref.order[i]
			if !reflect.DeepEqual(e.Nodes, DecodeKey(k)) || e.Mult != ref.mult[k] {
				t.Fatalf("seed %d: EdgesWithMult[%d] = %v, reference %v×%d", seed, i, e, DecodeKey(k), ref.mult[k])
			}
			if !reflect.DeepEqual(h.UniqueEdges()[i], e.Nodes) || !reflect.DeepEqual(h.EdgeByKey(k), e.Nodes) {
				t.Fatalf("seed %d: UniqueEdges/EdgeByKey disagree at %d", seed, i)
			}
		}
		// Lookups, present and (mostly) absent, by node set and by key.
		for i := 0; i < 200; i++ {
			nodes := randomSet()
			k := Key(nodes)
			want := ref.mult[k]
			if h.Multiplicity(nodes) != want || h.Contains(nodes) != (want > 0) ||
				h.MultiplicityKey(k) != want || h.ContainsKey(k) != (want > 0) {
				t.Fatalf("seed %d: lookups of %v disagree with reference %d", seed, nodes, want)
			}
		}
		if h.Contains([]int{-1, 0}) || h.ContainsKey("\xff") {
			t.Fatalf("seed %d: a negative id or a malformed key was found", seed)
		}

		// Equal against the same multiset built in another order, and
		// against one multiplicity off.
		perm := rng.Perm(len(ref.order))
		other := New(0)
		for _, i := range perm {
			k := ref.order[i]
			other.AddMult(DecodeKey(k), ref.mult[k])
		}
		if !h.Equal(other) || !other.Equal(h) || !h.Equal(h.Clone()) {
			t.Fatalf("seed %d: Equal rejects the same multiset", seed)
		}
		other.Add(DecodeKey(ref.order[perm[0]]))
		if h.Equal(other) || other.Equal(h) {
			t.Fatalf("seed %d: Equal accepts a different multiplicity", seed)
		}

		var sb strings.Builder
		if err := h.Write(&sb); err != nil {
			t.Fatal(err)
		}
		back, err := Read(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("seed %d: reading back: %v", seed, err)
		}
		if !back.Equal(h) {
			t.Fatalf("seed %d: Write→Read round trip changed the multiset", seed)
		}
		var sb2 strings.Builder
		if err := back.Write(&sb2); err != nil || sb2.String() != sb.String() {
			t.Fatalf("seed %d: second Write differs (%v)", seed, err)
		}
	}
}

// TestCompactStorageFootprint guards the compact layout: 100k random
// hyperedges of size 2–6 retain at most 48 bytes per unique hyperedge
// (arena, offsets, multiplicities and index together), measured as the
// live-heap delta after a GC. A string key, map entry and node slice per
// hyperedge cost several times that.
func TestCompactStorageFootprint(t *testing.T) {
	const n = 100_000
	rng := rand.New(rand.NewSource(1))
	edges := make([][]int, n)
	for i := range edges {
		e := make([]int, 2+rng.Intn(5))
		for j := range e {
			e[j] = rng.Intn(1 << 20)
		}
		edges[i] = e
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	h := New(0)
	for _, e := range edges {
		h.Add(e)
	}
	after := heap()
	runtime.KeepAlive(edges)
	perEdge := float64(after-min(after, before)) / float64(h.NumUnique())
	t.Logf("%d unique hyperedges retain %.1f B each", h.NumUnique(), perEdge)
	if perEdge > 48 {
		t.Fatalf("%.1f B retained per unique hyperedge, want ≤ 48", perEdge)
	}
	runtime.KeepAlive(h)
}
