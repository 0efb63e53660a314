// Package hypergraph implements the hypergraph substrate of the MARIOH
// reproduction: a multiset of hyperedges H = (V, E*_H) with per-hyperedge
// multiplicities, the clique-expansion projection into a weighted pairwise
// graph, and the structural properties used in the paper's Table IV.
//
// Hyperedges are node sets of size ≥ 2, with Key as their canonical string
// form; a hyperedge occurring m times in the multiset has multiplicity m.
package hypergraph

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"marioh/internal/graph"
)

// Hypergraph is a multiset of hyperedges over nodes 0..NumNodes()-1.
// The zero value is not usable; call New.
//
// Storage is compact and flat. The unique hyperedges are kept in
// first-insertion order as sorted int32 runs in one node arena (edge i is
// nodes[ends[i-1]:ends[i]], with ends[-1] = 0), their multiplicities in
// mults, and an open-addressing table of edge ids, hashed with
// splitmix64, answers lookups by node set. A unique hyperedge of size k
// costs 4k+8 bytes plus its index slot, so node ids and multiplicities
// must fit in an int32. Read-only methods are safe for concurrent use.
type Hypergraph struct {
	numNodes int
	nodes    []int32 // node arena, one sorted run per unique hyperedge
	ends     []int32 // ends[i] is the arena offset one past edge i
	mults    []int32 // mults[i] = M(edge i)
	index    []int32 // open addressing: 0 = empty slot, else edge id + 1; len 0 or a power of two
	total    int     // Σ multiplicities
	sumSizes int     // Σ |e| · M(e)
}

// New returns an empty hypergraph with capacity for n nodes. The node set
// grows automatically when hyperedges mention larger ids.
func New(n int) *Hypergraph {
	return &Hypergraph{numNodes: n}
}

// NumNodes returns the size of the node universe.
func (h *Hypergraph) NumNodes() int { return h.numNodes }

// EnsureNodes grows the node universe to at least n nodes.
func (h *Hypergraph) EnsureNodes(n int) {
	if n > h.numNodes {
		h.numNodes = n
	}
}

// NumUnique returns the number of distinct hyperedges |E_H|.
func (h *Hypergraph) NumUnique() int { return len(h.ends) }

// NumTotal returns the multiset size |E*_H| = Σ_e M(e).
func (h *Hypergraph) NumTotal() int { return h.total }

// SumSizes returns Σ_e |e| · M(e), the total incidence count.
func (h *Hypergraph) SumSizes() int { return h.sumSizes }

// edge returns the arena run of unique hyperedge i.
func (h *Hypergraph) edge(i int) []int32 {
	start := int32(0)
	if i > 0 {
		start = h.ends[i-1]
	}
	return h.nodes[start:h.ends[i]]
}

// Add inserts one occurrence of the hyperedge given by nodes.
func (h *Hypergraph) Add(nodes []int) { h.AddMult(nodes, 1) }

// AddMult inserts m occurrences of the hyperedge given by nodes. The input
// is canonicalized (sorted, deduplicated); hyperedges must contain at least
// two distinct nodes, node ids must lie in [0, math.MaxInt32), and the
// hyperedge's multiplicity must stay within an int32.
func (h *Hypergraph) AddMult(nodes []int, m int) {
	if m <= 0 || m > math.MaxInt32 {
		panic(fmt.Sprintf("hypergraph: multiplicity %d outside [1, %d]", m, math.MaxInt32))
	}
	canon := canonical(nodes)
	if len(canon) < 2 {
		panic(fmt.Sprintf("hypergraph: hyperedge %v has fewer than 2 distinct nodes", nodes))
	}
	if top := canon[len(canon)-1]; top >= math.MaxInt32 {
		panic(fmt.Sprintf("hypergraph: node id %d does not fit in an int32", top))
	}
	hash := hashNodes(canon)
	if id := find(h, canon, hash); id >= 0 {
		if int64(h.mults[id])+int64(m) > math.MaxInt32 {
			panic(fmt.Sprintf("hypergraph: multiplicity of %v would overflow an int32", canon))
		}
		h.mults[id] += int32(m)
	} else {
		if len(h.nodes)+len(canon) > math.MaxInt32 {
			panic("hypergraph: node arena would overflow an int32")
		}
		for _, v := range canon {
			h.nodes = append(h.nodes, int32(v))
		}
		h.ends = append(h.ends, int32(len(h.nodes)))
		h.mults = append(h.mults, int32(m))
		h.insert(len(h.ends)-1, hash)
		if top := canon[len(canon)-1] + 1; top > h.numNodes {
			h.numNodes = top
		}
	}
	h.total += m
	h.sumSizes += len(canon) * m
}

// canonical returns nodes sorted and deduplicated. Input that already is
// strictly ascending — every clique the engine emits — is returned as is,
// without a copy. It panics on a negative node id.
func canonical(nodes []int) []int {
	sorted := true
	for i, v := range nodes {
		if v < 0 {
			panic("hypergraph: negative node id")
		}
		if i > 0 && v <= nodes[i-1] {
			sorted = false
		}
	}
	if sorted {
		return nodes
	}
	s := make([]int, len(nodes))
	copy(s, nodes)
	sort.Ints(s)
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// hashNodes hashes a sorted node set by chaining the SplitMix64 finalizer
// over its ids. Every output bit depends on every id, so the index can
// take its slot from the low bits.
func hashNodes[T int | int32](nodes []T) uint64 {
	x := uint64(len(nodes))
	for _, v := range nodes {
		x ^= uint64(v)
		x += 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}

// find returns the id of the unique hyperedge whose sorted node set is
// nodes (with hash hashNodes(nodes)), or -1.
func find[T int | int32](h *Hypergraph, nodes []T, hash uint64) int {
	if len(h.index) == 0 {
		return -1
	}
	mask := uint64(len(h.index) - 1)
	for slot := hash & mask; ; slot = (slot + 1) & mask {
		id := int(h.index[slot]) - 1
		if id < 0 {
			return -1
		}
		if e := h.edge(id); len(e) == len(nodes) && equalRun(e, nodes) {
			return id
		}
	}
}

func equalRun[T int | int32](e []int32, nodes []T) bool {
	for i, v := range e {
		if int(v) != int(nodes[i]) {
			return false
		}
	}
	return true
}

// insert records edge id in the index, doubling the table once it would
// be more than half full.
func (h *Hypergraph) insert(id int, hash uint64) {
	if 2*len(h.ends) > len(h.index) {
		size := max(16, 2*len(h.index))
		h.index = make([]int32, size)
		for i := 0; i < id; i++ {
			h.place(i, hashNodes(h.edge(i)))
		}
	}
	h.place(id, hash)
}

func (h *Hypergraph) place(id int, hash uint64) {
	mask := uint64(len(h.index) - 1)
	slot := hash & mask
	for h.index[slot] != 0 {
		slot = (slot + 1) & mask
	}
	h.index[slot] = int32(id + 1)
}

// lookup returns the id of the hyperedge with the given node set (in any
// order, duplicates allowed), or -1. Negative ids are never present.
func (h *Hypergraph) lookup(nodes []int) int {
	for _, v := range nodes {
		if v < 0 {
			return -1
		}
	}
	canon := canonical(nodes)
	return find(h, canon, hashNodes(canon))
}

// Multiplicity returns M(e) for the hyperedge with the given node set, or 0
// if absent.
func (h *Hypergraph) Multiplicity(nodes []int) int {
	if id := h.lookup(nodes); id >= 0 {
		return int(h.mults[id])
	}
	return 0
}

// Contains reports whether the given node set is a hyperedge.
func (h *Hypergraph) Contains(nodes []int) bool {
	return h.lookup(nodes) >= 0
}

// lookupKey returns the id of the hyperedge with canonical key k, or -1.
// A key that is not the canonical encoding of a storable node set — it
// does not decode, repeats a node or leaves the int32 range — names no
// hyperedge.
func (h *Hypergraph) lookupKey(k string) int {
	nodes, ok := decodeKey(k)
	if !ok {
		return -1
	}
	for i, v := range nodes {
		if v < 0 || v >= math.MaxInt32 || (i > 0 && v <= nodes[i-1]) {
			return -1
		}
	}
	return find(h, nodes, hashNodes(nodes))
}

// MultiplicityKey returns the multiplicity of the hyperedge with canonical
// key k, or 0 if absent.
func (h *Hypergraph) MultiplicityKey(k string) int {
	if id := h.lookupKey(k); id >= 0 {
		return int(h.mults[id])
	}
	return 0
}

// ContainsKey reports whether a hyperedge with canonical key k is present.
func (h *Hypergraph) ContainsKey(k string) bool {
	return h.lookupKey(k) >= 0
}

// Keys returns the canonical keys of the unique hyperedges in
// first-insertion order. Keys are not stored: every call encodes them
// afresh into a new slice, so iterate with Each where a key is not needed.
func (h *Hypergraph) Keys() []string {
	out := make([]string, 0, len(h.ends))
	h.Each(func(nodes []int, _ int) { out = append(out, KeySorted(nodes)) })
	return out
}

// EdgeByKey returns the sorted node set for key k. It panics if k is absent.
func (h *Hypergraph) EdgeByKey(k string) []int {
	id := h.lookupKey(k)
	if id < 0 {
		panic("hypergraph: unknown key")
	}
	return appendEdge(nil, h.edge(id))
}

func appendEdge(dst []int, e []int32) []int {
	for _, v := range e {
		dst = append(dst, int(v))
	}
	return dst
}

// UniqueEdges returns copies of all distinct hyperedges (sorted node sets)
// in first-insertion order.
func (h *Hypergraph) UniqueEdges() [][]int {
	flat := appendEdge(make([]int, 0, len(h.nodes)), h.nodes)
	out := make([][]int, len(h.ends))
	start := int32(0)
	for i, end := range h.ends {
		out[i] = flat[start:end:end]
		start = end
	}
	return out
}

// EdgeMult pairs a hyperedge with its multiplicity.
type EdgeMult struct {
	Nodes []int
	Mult  int
}

// EdgesWithMult returns all distinct hyperedges with their multiplicities in
// first-insertion order.
func (h *Hypergraph) EdgesWithMult() []EdgeMult {
	out := make([]EdgeMult, len(h.ends))
	for i, e := range h.UniqueEdges() {
		out[i] = EdgeMult{Nodes: e, Mult: int(h.mults[i])}
	}
	return out
}

// Each calls fn once per unique hyperedge with its multiplicity, in
// first-insertion order. The node slice is a sorted view decoded for the
// call: it is valid only until fn returns and is reused for the next
// hyperedge, so a caller that keeps nodes must copy them.
func (h *Hypergraph) Each(fn func(nodes []int, mult int)) {
	var buf []int
	for i, m := range h.mults {
		buf = appendEdge(buf[:0], h.edge(i))
		fn(buf, int(m))
	}
}

// Clone returns a deep copy.
func (h *Hypergraph) Clone() *Hypergraph {
	return &Hypergraph{
		numNodes: h.numNodes,
		nodes:    slices.Clone(h.nodes),
		ends:     slices.Clone(h.ends),
		mults:    slices.Clone(h.mults),
		index:    slices.Clone(h.index),
		total:    h.total,
		sumSizes: h.sumSizes,
	}
}

// Reduced returns the multiplicity-reduced hypergraph: the same unique
// hyperedges, each with multiplicity 1. This matches the paper's
// "multiplicity-reduced setting" (Sect. IV-A). Note that projecting the
// reduced hypergraph still yields edge multiplicities > 1 wherever distinct
// hyperedges overlap in two or more nodes.
func (h *Hypergraph) Reduced() *Hypergraph {
	c := h.Clone()
	for i := range c.mults {
		c.mults[i] = 1
	}
	c.total, c.sumSizes = len(c.ends), len(c.nodes)
	return c
}

// Project performs clique expansion, producing the weighted projected graph
// G = (V, E_G, ω) with ω(u,v) = Σ_e M(e) · 1({u,v} ⊆ e).
func (h *Hypergraph) Project() *graph.Graph {
	g := graph.New(h.numNodes)
	for id, mult := range h.mults {
		e := h.edge(id)
		for i := 0; i < len(e); i++ {
			for j := i + 1; j < len(e); j++ {
				g.AddWeight(int(e[i]), int(e[j]), int(mult))
			}
		}
	}
	return g
}

// NodeDegrees returns, for every node, the number of hyperedge occurrences
// containing it (multiplicities counted).
func (h *Hypergraph) NodeDegrees() []int {
	deg := make([]int, h.numNodes)
	h.Each(func(nodes []int, mult int) {
		for _, u := range nodes {
			deg[u] += mult
		}
	})
	return deg
}

// CoveredNodes returns the number of nodes that appear in at least one
// hyperedge.
func (h *Hypergraph) CoveredNodes() int {
	seen := make([]bool, h.numNodes)
	n := 0
	h.Each(func(nodes []int, _ int) {
		for _, u := range nodes {
			if !seen[u] {
				seen[u] = true
				n++
			}
		}
	})
	return n
}

// EdgeSizes returns the sizes of all hyperedge occurrences (one entry per
// occurrence, so a hyperedge with multiplicity m contributes m entries).
func (h *Hypergraph) EdgeSizes() []int {
	out := make([]int, 0, h.total)
	h.Each(func(nodes []int, mult int) {
		for i := 0; i < mult; i++ {
			out = append(out, len(nodes))
		}
	})
	return out
}

// Equal reports whether two hypergraphs have identical hyperedge multisets.
func (h *Hypergraph) Equal(o *Hypergraph) bool {
	if h.NumUnique() != o.NumUnique() || h.total != o.total {
		return false
	}
	for i, m := range h.mults {
		e := h.edge(i)
		if id := find(o, e, hashNodes(e)); id < 0 || o.mults[id] != m {
			return false
		}
	}
	return true
}

// AvgMultiplicity returns the average hyperedge multiplicity
// |E*_H| / |E_H|, the "Avg. M_H" column of the paper's Table I.
func (h *Hypergraph) AvgMultiplicity() float64 {
	if len(h.ends) == 0 {
		return 0
	}
	return float64(h.total) / float64(len(h.ends))
}
