package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"marioh/internal/datasets"
	"marioh/internal/graph"
	"marioh/internal/hypergraph"
)

// Every input of a run is a pure function of --seed (and, for the open
// loop, of the window length that bounds its schedule). The models are
// not inputs (see modelSeed).

// dataset generates a named analog and returns its multiplicity-1 halves,
// the paper's training/evaluation protocol.
func dataset(name string, genSeed int64) (src, tgt *hypergraph.Hypergraph, err error) {
	ds, err := datasets.ByName(name, genSeed)
	if err != nil {
		return nil, nil, err
	}
	return ds.Source.Reduced(), ds.Target.Reduced(), nil
}

// ---- dense-eu ----

// densePool is how many distinct eu targets one run cycles through. The
// work of one eu reconstruction swings by tens of percent from target to
// target (the number of rounds is chaotic); cycling through several keeps
// a run's median from resting on one draw.
const densePool = 6

type denseInputs struct {
	source   *hypergraph.Hypergraph   // eu@1 source half: the model's training data
	genSeeds []int64                  // eu generator seed of each pool target
	truths   []*hypergraph.Hypergraph // each target half: ground truth
	targets  []*graph.Graph           // their projections: the ops' inputs
}

// genDense builds the eu pool; at seed 1 the first target is eu@1's
// target half, the one the model's own source half came from.
func genDense(seed int64) (*denseInputs, error) {
	src, _, err := dataset("eu", 1)
	if err != nil {
		return nil, err
	}
	in := &denseInputs{source: src}
	for i := 0; i < densePool; i++ {
		gs := (seed-1)*densePool + 1 + int64(i)
		_, tgt, err := dataset("eu", gs)
		if err != nil {
			return nil, err
		}
		in.genSeeds = append(in.genSeeds, gs)
		in.truths = append(in.truths, tgt)
		in.targets = append(in.targets, tgt.Project())
	}
	return in, nil
}

func (in *denseInputs) bytes() []byte {
	var b bytes.Buffer
	_ = in.source.Write(&b)
	for _, g := range in.targets {
		_ = g.Write(&b)
	}
	return b.Bytes()
}

func (in *denseInputs) shape() []string {
	out := []string{fmt.Sprintf("model: eu@1 source half, %d hyperedges, paper defaults", in.source.NumUnique())}
	for i, g := range in.targets {
		comps, giant := componentStats(g)
		out = append(out, fmt.Sprintf("target %d: eu@%d nodes=%d edges=%d components=%d giant=%d",
			i, in.genSeeds[i], g.NumNodes(), g.NumEdges(), comps, giant))
	}
	return out
}

// ---- session-window-dblp ----

const (
	windowK = 2 // source hyperedges added per batch
	windowW = 8 // batches live in the window; batch i retracts batch i−w
)

type windowInputs struct {
	source *hypergraph.Hypergraph // dblp@1 source half: the model's training data
	truth  *hypergraph.Hypergraph // dblp@1 target half: ground truth before the window
	base   *graph.Graph           // its projection: the session's initial graph
	offset int                    // where in the source half the feed starts
	feed   [][]int                // source-half hyperedges in feed order
}

// genWindow builds the session's inputs. The base graph is the dblp
// analog's target half at generator seed 1 on every seed, so every run
// measures a session of the same size; the seed picks where in the source
// half the window's feed starts, and so every batch.
func genWindow(seed int64) (*windowInputs, error) {
	src, tgt, err := dataset("dblp", 1)
	if err != nil {
		return nil, err
	}
	edges := src.UniqueEdges()
	off := rand.New(rand.NewSource(seed)).Intn(len(edges))
	return &windowInputs{
		source: src,
		truth:  tgt,
		base:   tgt.Project(),
		offset: off,
		feed:   append(edges[off:len(edges):len(edges)], edges[:off]...),
	}, nil
}

func (in *windowInputs) bytes(batches int) []byte {
	var b bytes.Buffer
	_ = in.source.Write(&b)
	_ = in.base.Write(&b)
	f := newFeed(in.base, in.feed, windowK, windowW)
	for i := 0; i < batches; i++ {
		_ = graph.WriteDeltas(&b, f.batch())
	}
	return b.Bytes()
}

func (in *windowInputs) shape() []string {
	comps, giant := componentStats(in.base)
	return []string{
		fmt.Sprintf("model: dblp@1 source half, %d hyperedges, paper defaults", in.source.NumUnique()),
		fmt.Sprintf("base: dblp@1 target nodes=%d edges=%d components=%d giant=%d",
			in.base.NumNodes(), in.base.NumEdges(), comps, giant),
		fmt.Sprintf("window: k=%d source hyperedges per batch, w=%d batches live, feed starts at hyperedge %d of %d",
			windowK, windowW, in.offset, len(in.feed)),
	}
}

// feed turns a stream of hyperedges into sliding-window delta batches:
// each batch adds the clique projection of the next k hyperedges ("+ u v
// 1" per pair) and retracts the batch added w batches earlier ("= u v
// ω−1" per pair), so after w batches the graph stays the same size. The
// batches are a pure function of the base graph and the stream.
type feed struct {
	edges  [][]int
	next   int
	k, w   int
	shadow *graph.Graph // base + live window: the ω the retractions read
	live   [][][]int    // hyperedges of the live batches, oldest first
}

func newFeed(base *graph.Graph, edges [][]int, k, w int) *feed {
	return &feed{edges: edges, k: k, w: w, shadow: base.Clone()}
}

func (f *feed) batch() []graph.DeltaOp {
	var ops []graph.DeltaOp
	var added [][]int
	for i := 0; i < f.k; i++ {
		e := f.edges[f.next%len(f.edges)]
		f.next++
		added = append(added, e)
		eachPair(e, func(u, v int) {
			f.shadow.EnsureNodes(max(u, v) + 1)
			f.shadow.AddWeight(u, v, 1)
			ops = append(ops, graph.DeltaOp{Kind: graph.DeltaAdd, U: u, V: v, W: 1})
		})
	}
	f.live = append(f.live, added)
	if len(f.live) > f.w {
		for _, e := range f.live[0] {
			eachPair(e, func(u, v int) {
				w := f.shadow.Weight(u, v) - 1
				f.shadow.AddWeight(u, v, -1)
				ops = append(ops, graph.DeltaOp{Kind: graph.DeltaSet, U: u, V: v, W: w})
			})
		}
		f.live = f.live[1:]
	}
	return ops
}

// truth returns the ground truth the current graph was built from: the
// base hypergraph plus the live window's hyperedges.
func (f *feed) truth(base *hypergraph.Hypergraph) *hypergraph.Hypergraph {
	h := base.Clone()
	for _, b := range f.live {
		for _, e := range b {
			h.Add(e)
		}
	}
	return h
}

func eachPair(e []int, fn func(u, v int)) {
	for i := 0; i < len(e); i++ {
		for j := i + 1; j < len(e); j++ {
			fn(e[i], e[j])
		}
	}
}

// ---- serve-mixed ----

const (
	serveRate    = 4.0 // requests per second, Poisson arrivals
	serveTenants = 4
	// Each block of serveBlock requests holds serveApplies session applies
	// at seeded positions, the rest are one-shot reconstructions.
	serveBlock   = 20
	serveApplies = 3
	// Session window of the per-tenant server sessions.
	serveK = 1
	serveW = 4
)

// serveDatasets are the mid-size analogs the reconstructions draw from,
// in the order targets cycle through them: pschool and hschool take about
// 20–40 ms each, enron about 80–100 ms.
var serveDatasets = []string{"pschool", "hschool", "enron"}

// sessionDatasets are the analogs of the tenants' sessions. They are the
// fast ones, so the slow class (enron) stays a stable share of the
// traffic, well clear of the median and of the tail percentile.
var sessionDatasets = []string{"pschool", "hschool"}

type serveRequest struct {
	due    time.Duration
	tenant int
	apply  bool

	// A reconstruction: dataset analog, its generator seed, ground
	// truth, input graph and its wire text.
	dataset string
	genSeed int64
	truth   *hypergraph.Hypergraph
	target  *graph.Graph
	text    string

	// A session apply: the tenant's seq-th delta batch and its wire text.
	seq       int
	ops       []graph.DeltaOp
	deltaText string
}

type serveSession struct {
	dataset string
	genSeed int64
	base    *graph.Graph
	text    string
}

type serveInputs struct {
	sources  map[string]*hypergraph.Hypergraph // model training halves, @1
	sessions []serveSession                    // one per tenant
	requests []serveRequest
}

func genServe(seed int64, window time.Duration) (*serveInputs, error) {
	in := &serveInputs{sources: map[string]*hypergraph.Hypergraph{}}
	for _, name := range serveDatasets {
		src, _, err := dataset(name, 1)
		if err != nil {
			return nil, err
		}
		in.sources[name] = src
	}
	rng := rand.New(rand.NewSource(seed))
	feeds := make([]*feed, serveTenants)
	for t := range feeds {
		name := sessionDatasets[t%len(sessionDatasets)]
		gs := seed*100000 + 500 + int64(t)
		fsrc, tgt, err := dataset(name, gs)
		if err != nil {
			return nil, err
		}
		base := tgt.Project()
		in.sessions = append(in.sessions, serveSession{dataset: name, genSeed: gs, base: base, text: graphText(base)})
		feeds[t] = newFeed(base, fsrc.UniqueEdges(), serveK, serveW)
	}

	due := poissonSchedule(rng, serveRate, window)
	var applyAt map[int]bool
	nRec, nApply := 0, 0
	seqs := make([]int, serveTenants)
	for i, d := range due {
		if i%serveBlock == 0 {
			applyAt = map[int]bool{}
			for _, p := range rng.Perm(serveBlock)[:serveApplies] {
				applyAt[p] = true
			}
		}
		req := serveRequest{due: d}
		if applyAt[i%serveBlock] {
			t := nApply % serveTenants
			nApply++
			req.apply, req.tenant, req.seq = true, t, seqs[t]
			seqs[t]++
			req.ops = feeds[t].batch()
			var b strings.Builder
			_ = graph.WriteDeltas(&b, req.ops)
			req.deltaText = b.String()
		} else {
			name := serveDatasets[nRec%len(serveDatasets)]
			gs := seed*100000 + 1000 + int64(nRec)
			nRec++
			_, tgt, err := dataset(name, gs)
			if err != nil {
				return nil, err
			}
			req.tenant = i % serveTenants
			req.dataset, req.genSeed, req.truth = name, gs, tgt
			req.target = tgt.Project()
			req.text = graphText(req.target)
		}
		in.requests = append(in.requests, req)
	}
	return in, nil
}

func graphText(g *graph.Graph) string {
	var b strings.Builder
	_ = g.Write(&b)
	return b.String()
}

func (in *serveInputs) bytes() []byte {
	var b bytes.Buffer
	for _, s := range in.sessions {
		b.WriteString(s.text)
	}
	for _, r := range in.requests {
		fmt.Fprintf(&b, "%d %d %v %s %d %d\n", r.due, r.tenant, r.apply, r.dataset, r.genSeed, r.seq)
		b.WriteString(r.text)
		b.WriteString(r.deltaText)
	}
	return b.Bytes()
}

func (in *serveInputs) shape(window time.Duration) []string {
	nApply := 0
	mix := map[string]int{}
	for _, r := range in.requests {
		if r.apply {
			nApply++
		} else {
			mix[r.dataset]++
		}
	}
	n := len(in.requests)
	out := []string{
		fmt.Sprintf("open loop: Poisson arrivals at %.1f/s over %s = %d requests from %d tenants",
			serveRate, window, n, serveTenants),
		fmt.Sprintf("mix: %d reconstructions (pschool=%d hschool=%d enron=%d, each a distinct target), %d session applies (%.0f%%)",
			n-nApply, mix["pschool"], mix["hschool"], mix["enron"], nApply, 100*float64(nApply)/float64(max(n, 1))),
	}
	for t, s := range in.sessions {
		comps, giant := componentStats(s.base)
		out = append(out, fmt.Sprintf("tenant %d session: %s@%d nodes=%d edges=%d components=%d giant=%d, window k=%d w=%d",
			t, s.dataset, s.genSeed, s.base.NumNodes(), s.base.NumEdges(), comps, giant, serveK, serveW))
	}
	return out
}
