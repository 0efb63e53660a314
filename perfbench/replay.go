package main

import (
	"context"
	"math"
	"strconv"
	"strings"

	"marioh/internal/core"
	"marioh/internal/features"
	"marioh/internal/graph"
	"marioh/internal/hypergraph"
	"marioh/internal/mlp"
)

// resolveNonNeg mirrors core.Options' float sentinel: 0 means the paper's
// default, a negative value means exactly 0.
func resolveNonNeg(v, def float64) float64 {
	switch {
	case v < 0:
		return 0
	case v == 0:
		return def
	default:
		return v
	}
}

// resolve fills in the paper's defaults the way core.Options does.
func resolve(o core.Options) core.Options {
	o.ThetaInit = resolveNonNeg(o.ThetaInit, 0.9)
	o.R = resolveNonNeg(o.R, 40)
	o.Alpha = resolveNonNeg(o.Alpha, 1.0/20)
	if o.MaxRounds <= 0 {
		o.MaxRounds = 10000
	}
	return o
}

// replay reconstructs g by driving MARIOH's outer loop from outside the
// program: core.Filter once, then one core.BidirectionalSearch per round
// on the θ schedule θ ← max(θ − α·θ_init, 0). It must produce the bytes
// core.ReconstructContext (origID nil) or core.ReconstructPiece (origID
// set) produce on the same input; replay_test.go holds it to that.
//
// With a tracer, every round is preceded by timed calls into the layers
// the search uses on the same residual: maximal-clique enumeration,
// feature extraction, and the model's standardize + MLP forward. Those
// calls read the residual and leave it unchanged, so the output is the
// same traced or not; their spans are children of parent in op.
func replay(ctx context.Context, g *graph.Graph, m *core.Model, o core.Options, origID []int, tr *tracer, op, parent int) (*hypergraph.Hypergraph, error) {
	opts := resolve(o)
	work := g.Clone()
	rec := hypergraph.New(g.NumNodes())
	if err := ctx.Err(); err != nil {
		return rec, err
	}
	if !opts.DisableFiltering {
		s := tr.start(op, parent, "core.filter")
		n := core.Filter(work, rec)
		tr.stop(s)
		tr.count("core.filter_size2", float64(n))
	}
	seen := map[string]bool{}
	theta := opts.ThetaInit
	for round := 0; round < opts.MaxRounds && work.NumEdges() > 0; round++ {
		if err := ctx.Err(); err != nil {
			return rec, err
		}
		tr.count("core.rounds", 1)
		if tr != nil {
			profileRound(work, m, opts.MaxCliqueLimit, origID, seen, tr, op, parent)
		}
		s := tr.start(op, parent, "core.search")
		accepted := core.BidirectionalSearch(work, m, core.SearchOptions{
			Ctx:                    ctx,
			Theta:                  theta,
			R:                      opts.R,
			DisableSubcliques:      opts.DisableBidirectional,
			MaxCliqueLimit:         opts.MaxCliqueLimit,
			Round:                  round,
			Seed:                   opts.Seed,
			OrigID:                 origID,
			Parallelism:            opts.Parallelism,
			ScoreParallelThreshold: opts.ScoreParallelThreshold,
			PipelineChunk:          opts.PipelineChunk,
			StallDump:              theta == 0 || opts.Alpha == 0,
		}, rec)
		tr.stop(s)
		tr.count("core.accepted", float64(accepted))
		theta = max(theta-opts.Alpha*opts.ThetaInit, 0)
	}
	return rec, ctx.Err()
}

// profileRound times the layers one search round is built from, on the
// round's residual: enumeration (graph), features, and standardize + MLP
// forward (mlp). It also counts the scorings whose (clique, feature
// vector) pair was already scored in an earlier round of the same op —
// the work a cross-round score memo would save.
func profileRound(work *graph.Graph, m *core.Model, cliqueLimit int, origID []int, seen map[string]bool, tr *tracer, op, parent int) {
	s := tr.start(op, parent, "graph.enum")
	var cliques [][]int
	if cliqueLimit > 0 {
		cliques = work.MaximalCliquesLimit(2, cliqueLimit)
	} else {
		cliques = work.MaximalCliques(2)
	}
	tr.stop(s)
	tr.count("graph.cliques", float64(len(cliques)))

	dim := m.Feat.Dim()
	flat := make([]float64, 0, len(cliques)*dim)
	var fs features.Scratch
	s = tr.start(op, parent, "features")
	for _, q := range cliques {
		flat = append(flat, features.Compute(m.Feat, &fs, work, q, true)...)
	}
	tr.stop(s)
	tr.count("features.calls", float64(len(cliques)))

	var ms mlp.Scratch
	x := make([]float64, dim)
	s = tr.start(op, parent, "mlp")
	for i := range cliques {
		copy(x, flat[i*dim:(i+1)*dim])
		m.Std.Transform(x)
		m.Net.ForwardScratch(x, &ms)
	}
	tr.stop(s)
	tr.count("mlp.forwards", float64(len(cliques)))

	repeats := 0
	keys := make([]string, len(cliques))
	for i, q := range cliques {
		keys[i] = scoringKey(q, origID, flat[i*dim:(i+1)*dim])
		if seen[keys[i]] {
			repeats++
		}
	}
	for _, k := range keys {
		seen[k] = true
	}
	tr.count("core.repeat_scores", float64(repeats))
}

// scoringKey identifies a (clique, feature vector) scoring by the
// clique's original node ids and the vector's exact bits.
func scoringKey(q, origID []int, f []float64) string {
	var b strings.Builder
	for _, u := range q {
		if origID != nil {
			u = origID[u]
		}
		b.WriteString(strconv.Itoa(u))
		b.WriteByte(',')
	}
	b.WriteByte('|')
	for _, v := range f {
		b.WriteString(strconv.FormatUint(math.Float64bits(v), 36))
		b.WriteByte(',')
	}
	return b.String()
}
