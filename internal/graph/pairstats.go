package graph

// PairScratch holds the reusable state of CliquePairStats. One scratch per
// worker; not safe for concurrent use. The zero value is ready to use.
type PairScratch struct {
	// Node-indexed working arrays, grown to the graph size on demand and
	// cleaned up after every call via the touched/member lists.
	cnt       []int32 // entries per common-neighbor candidate z
	off       []int32 // CSR offsets per z during the fill pass
	memberIdx []int32 // node id → clique index, -1 otherwise
	touched   []int32 // z's seen this call, for O(touched) cleanup

	members []int32 // CSR payload: clique index of each (member, z) entry
	weights []int32 // CSR payload: ω(member, z)
	acc     []int   // |Q|×|Q| upper-triangle MHH accumulator

	omega, mhh []int // result buffers handed to the caller

	// The parent pin (see Pin).
	pinG             *Graph
	pinNodes         []int   // the pinned parent, in the caller's order
	pinIdx           []int32 // node id → index in pinNodes, -1 otherwise
	pinOmega, pinMHH []int   // the parent's pair statistics, once swept
	pinSwept         bool
	pos              []int32 // parent index of each node of the current query
}

// grow ensures the node-indexed arrays cover n nodes.
func (s *PairScratch) grow(n int) {
	if len(s.cnt) < n {
		s.cnt = make([]int32, n)
		s.off = make([]int32, n)
		s.memberIdx = make([]int32, n)
		s.pinIdx = make([]int32, n)
		for i := range s.memberIdx {
			s.memberIdx[i] = -1
			s.pinIdx[i] = -1
		}
	}
}

// Pin makes later CliquePairStats calls on g with s answer any node set
// drawn from parent by indexing one sweep of parent itself, instead of
// sweeping each query. The statistics of a pair depend only on the pair
// and the graph, never on the rest of the query, so the answers are
// identical; the parent need not be a clique of g. The sweep runs on the
// first query that uses it, so a pin no query uses costs nothing but the
// index. g must not change until Unpin; queries on other graphs, or
// reaching outside the parent, ignore the pin. Pinning again replaces the
// previous pin.
func (s *PairScratch) Pin(g *Graph, parent []int) {
	s.Unpin()
	for _, u := range parent {
		g.check(u)
	}
	s.grow(len(g.nbrs))
	s.pinG = g
	s.pinNodes = append(s.pinNodes[:0], parent...)
	for i, u := range s.pinNodes {
		s.pinIdx[u] = int32(i)
	}
}

// Unpin drops the pin; later queries sweep again.
func (s *PairScratch) Unpin() {
	if s.pinG == nil {
		return
	}
	for _, u := range s.pinNodes {
		s.pinIdx[u] = -1
	}
	s.pinG, s.pinSwept = nil, false
}

// pinned answers q from the pinned parent's statistics. It reports false
// when q is not a set of distinct parent members, for the caller to sweep
// instead.
func (s *PairScratch) pinned(g *Graph, q []int) (omega, mhh []int, ok bool) {
	pos := s.pos[:0]
	for _, u := range q {
		if u < 0 || u >= len(s.pinIdx) || s.pinIdx[u] < 0 {
			return nil, nil, false
		}
		pos = append(pos, s.pinIdx[u])
	}
	s.pos = pos
	if !s.pinSwept {
		omega, mhh := g.sweepPairStats(s.pinNodes, s)
		s.pinOmega = append(s.pinOmega[:0], omega...)
		s.pinMHH = append(s.pinMHH[:0], mhh...)
		s.pinSwept = true
	}
	m := len(s.pinNodes)
	s.omega, s.mhh = s.omega[:0], s.mhh[:0]
	for a := 0; a < len(pos); a++ {
		for b := a + 1; b < len(pos); b++ {
			i, j := int(pos[a]), int(pos[b])
			if i == j {
				return nil, nil, false
			}
			if i > j {
				i, j = j, i
			}
			k := i*(2*m-i-1)/2 + j - i - 1 // index of parent pair (i, j)
			s.omega = append(s.omega, s.pinOmega[k])
			s.mhh = append(s.mhh, s.pinMHH[k])
		}
	}
	return s.omega, s.mhh, true
}

// CliquePairStats returns, for every pair (q[i], q[j]) with i < j in the
// order (0,1), (0,2), …, (1,2), …, the edge multiplicity ω and the MHH
// bound SumMinCommonWeight — the two edge-level quantities of the MARIOH
// featurizer — computed for all pairs in a single sweep over the members'
// neighbor lists instead of one sorted merge per pair.
//
// The sweep is common-neighbor-centric: every node z adjacent to ≥ 2 clique
// members contributes min(ω(u,z), ω(v,z)) to each such pair (u,v), so the
// work is proportional to Σ_u deg(u) plus the actual intersection mass,
// not to |Q|² merges of full hub adjacency lists. Results are identical to
// calling Weight and SumMinCommonWeight per pair.
//
// Both returned slices are owned by the scratch and valid until the next
// call. While s pins a parent of q on g (see Pin), the pairs are read
// from the parent's single sweep.
func (g *Graph) CliquePairStats(q []int, s *PairScratch) (omega, mhh []int) {
	if s.pinG == g {
		if omega, mhh, ok := s.pinned(g, q); ok {
			return omega, mhh
		}
	}
	return g.sweepPairStats(q, s)
}

// sweepPairStats is CliquePairStats without the pin: one sweep over the
// members' neighbor lists.
func (g *Graph) sweepPairStats(q []int, s *PairScratch) (omega, mhh []int) {
	m := len(q)
	nPairs := m * (m - 1) / 2
	if cap(s.omega) < nPairs {
		s.omega = make([]int, 0, nPairs)
		s.mhh = make([]int, 0, nPairs)
	}
	s.omega, s.mhh = s.omega[:0], s.mhh[:0]
	if m < 2 {
		return s.omega, s.mhh
	}
	// Tiny cliques: two sorted merges beat setting up the sweep.
	if m == 2 {
		s.omega = append(s.omega, g.Weight(q[0], q[1]))
		s.mhh = append(s.mhh, g.SumMinCommonWeight(q[0], q[1]))
		return s.omega, s.mhh
	}
	for _, u := range q {
		g.check(u)
	}
	s.grow(len(g.nbrs))

	if cap(s.acc) < m*m {
		s.acc = make([]int, m*m)
	}
	acc := s.acc[:m*m]
	for i := range acc {
		acc[i] = 0
	}
	for i, u := range q {
		s.memberIdx[u] = int32(i)
	}
	// Pass 1: count, per candidate z, how many clique members it neighbors.
	s.touched = s.touched[:0]
	total := 0
	for _, u := range q {
		for _, z := range g.nbrs[u] {
			if s.cnt[z] == 0 {
				s.touched = append(s.touched, z)
			}
			s.cnt[z]++
			total++
		}
	}
	// Prefix offsets over touched candidates.
	sum := int32(0)
	for _, z := range s.touched {
		s.off[z] = sum
		sum += s.cnt[z]
	}
	if cap(s.members) < total {
		s.members = make([]int32, total)
		s.weights = make([]int32, total)
	}
	members, weights := s.members[:total], s.weights[:total]
	// Pass 2: fill the CSR blocks and capture pair multiplicities ω when a
	// neighbor is itself a clique member.
	omegaAcc := acc // reuse layout: ω goes to [j][i] (lower triangle), MHH to [i][j]
	for i, u := range q {
		ws := g.wts[u]
		for k, z := range g.nbrs[u] {
			idx := s.off[z]
			members[idx] = int32(i)
			weights[idx] = ws[k]
			s.off[z] = idx + 1
			if j := s.memberIdx[z]; j > int32(i) {
				omegaAcc[int(j)*m+i] = int(ws[k])
			}
		}
	}
	// Accumulate min-weight contributions per candidate block. Entries in a
	// block are in ascending member order because pass 2 walks members in
	// order, so a < b below indexes the upper triangle directly.
	end := int32(0)
	for _, z := range s.touched {
		start := end
		end = s.off[z]
		if end-start < 2 {
			continue
		}
		blockM := members[start:end]
		blockW := weights[start:end]
		for a := 0; a < len(blockM); a++ {
			ia := int(blockM[a]) * m
			wa := blockW[a]
			for b := a + 1; b < len(blockM); b++ {
				wmin := wa
				if blockW[b] < wmin {
					wmin = blockW[b]
				}
				acc[ia+int(blockM[b])] += int(wmin)
			}
		}
	}
	// Emit in pair order and clean up the node-indexed arrays.
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			s.omega = append(s.omega, omegaAcc[j*m+i])
			s.mhh = append(s.mhh, acc[i*m+j])
		}
	}
	for _, z := range s.touched {
		s.cnt[z] = 0
	}
	for _, u := range q {
		s.memberIdx[u] = -1
	}
	return s.omega, s.mhh
}
