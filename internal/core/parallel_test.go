package core

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"marioh/internal/datasets"
	"marioh/internal/graph"
	"marioh/internal/hypergraph"
)

// TestParallelTuningDefaults pins the documented default of the round
// engine's one tuning knob, ScoreParallelThreshold 256, both as a
// constant and through Options.defaults() resolution.
func TestParallelTuningDefaults(t *testing.T) {
	if defaultScoreParallelThreshold != 256 {
		t.Errorf("defaultScoreParallelThreshold = %d, want the documented 256", defaultScoreParallelThreshold)
	}
	var o Options
	o.defaults()
	if o.ScoreParallelThreshold != 256 {
		t.Errorf("Options.defaults() resolved threshold=%d, want 256", o.ScoreParallelThreshold)
	}
	o = Options{ScoreParallelThreshold: 7}
	o.defaults()
	if o.ScoreParallelThreshold != 7 {
		t.Errorf("Options.defaults() clobbered explicit threshold=%d", o.ScoreParallelThreshold)
	}
}

// TestScoreFanoutHonorsParallelism is the regression test for the bug
// where scoreCliques always fanned out to GOMAXPROCS past the threshold,
// ignoring the configured parallelism: WithParallelism(1) must mean one
// worker no matter how many cliques a round scores (or, for enumeration,
// how many edges the residual has).
func TestScoreFanoutHonorsParallelism(t *testing.T) {
	cases := []struct {
		n, workers, threshold, want int
	}{
		{n: 10000, workers: 1, threshold: 256, want: 1}, // the old bug: this fanned out
		{n: 10000, workers: 4, threshold: 256, want: 4},
		{n: 100, workers: 4, threshold: 256, want: 1}, // below threshold stays serial
		{n: 256, workers: 4, threshold: 256, want: 4}, // at threshold fans out
		{n: 3, workers: 8, threshold: 1, want: 3},     // never more workers than cliques
		{n: 10, workers: 0, threshold: 1, want: 1},    // degenerate input clamps to 1
	}
	for _, c := range cases {
		if got := fanout(c.n, c.workers, c.threshold); got != c.want {
			t.Errorf("fanout(%d, %d, %d) = %d, want %d", c.n, c.workers, c.threshold, got, c.want)
		}
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS (%d)", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d, want 3", got)
	}
}

// pipelineTestSetup trains a small model over the eu dataset's projected
// graph, the same substrate the other core tests score against.
func pipelineTestSetup(t testing.TB) (*Model, *graph.Graph) {
	t.Helper()
	ds := datasets.MustByName("eu", 1)
	src := ds.Source.Reduced()
	g := src.Project()
	m := Train(g, src, TrainOptions{Seed: 1, Epochs: 10})
	return m, g
}

// TestPipelineEnumerateScoredMatchesSerial checks that the round's
// enumerate→score step produces the same scored-clique multiset as the
// serial materialize-then-score reference across worker counts, with the
// threshold forced low so both phases fan out, and that a residual below
// the threshold stays serial. (The induced-subgraph mapBack path is
// covered end-to-end by TestParallelRoundEngineMatchesSerial's
// cached-piece runs, whose dirty components re-enumerate through
// Subgraph.)
func TestPipelineEnumerateScoredMatchesSerial(t *testing.T) {
	m, g := pipelineTestSetup(t)

	wantCliques := g.MaximalCliquesLimit(2, -1)
	want := scoreCliques(g, m, wantCliques, 1, defaultScoreParallelThreshold, nil)
	sortByScoreDesc(want)

	check := func(label string, workers, threshold int) {
		t.Helper()
		got, truncated := enumerateScored(g, m, -1, workers, threshold, nil, nil)
		if truncated {
			t.Fatalf("%s workers=%d: unexpected truncation without a limit", label, workers)
		}
		sortByScoreDesc(got)
		if len(got) != len(want) {
			t.Fatalf("%s workers=%d: %d scored cliques, want %d", label, workers, len(got), len(want))
		}
		for i := range got {
			if got[i].score != want[i].score || !equalNodes(got[i].nodes, want[i].nodes) {
				t.Fatalf("%s workers=%d: scored clique %d diverged", label, workers, i)
			}
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		check("threshold=1", workers, 1)
	}

	// A residual with fewer edges than the threshold keeps enumeration
	// (and therefore scoring) on one worker, whatever workers allows.
	small := g.NumEdges() + 1
	if w := fanout(g.NumEdges(), 8, small); w != 1 {
		t.Fatalf("fanout below the edge threshold = %d workers, want 1", w)
	}
	check("below-threshold", 8, small)

	// The limit path must reproduce the serial truncation prefix exactly.
	for _, limit := range []int{1, 5, len(wantCliques), len(wantCliques) + 10} {
		ref := scoreCliques(g, m, g.MaximalCliquesLimit(2, limit), 1, defaultScoreParallelThreshold, nil)
		for _, workers := range []int{1, 2, 4, 8} {
			got, truncated := enumerateScored(g, m, limit, workers, 1, nil, nil)
			if wantTrunc := limit <= len(wantCliques); truncated != wantTrunc {
				t.Fatalf("limit=%d workers=%d: truncated=%v, want %v", limit, workers, truncated, wantTrunc)
			}
			if len(got) != len(ref) {
				t.Fatalf("limit=%d workers=%d: %d cliques, want %d", limit, workers, len(got), len(ref))
			}
			for i := range got {
				if got[i].score != ref[i].score || !equalNodes(got[i].nodes, ref[i].nodes) {
					t.Fatalf("limit=%d workers=%d: clique %d diverged", limit, workers, i)
				}
			}
		}
	}
}

func equalNodes(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestParallelRoundEngineMatchesSerial drives full reconstructions — the
// serial pipeline, the cached piece engine, and the sharded orchestrator —
// at several parallelism settings with the fan-out threshold forced low,
// and requires byte-identical hypergraphs throughout.
func TestParallelRoundEngineMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	m, g := pipelineTestSetup(t)

	render := func(res *Result) []byte {
		var buf bytes.Buffer
		if err := res.Hypergraph.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	serial, err := ReconstructContext(context.Background(), g, m, Options{Seed: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := render(serial)

	for _, par := range []int{0, 2, 8} {
		opts := Options{Seed: 1, Parallelism: par, ScoreParallelThreshold: 1}
		res, err := ReconstructContext(context.Background(), g, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(render(res), want) {
			t.Errorf("Parallelism=%d serial pipeline diverged", par)
		}
		piece, err := ReconstructPiece(context.Background(), g.Clone(), m, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(render(piece), want) {
			t.Errorf("Parallelism=%d cached piece engine diverged", par)
		}
		sharded, err := ReconstructSharded(context.Background(), g, m, opts, ShardOptions{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(render(sharded), want) {
			t.Errorf("Parallelism=%d sharded orchestrator diverged", par)
		}
	}
}

// TestPhase2ParallelScoringMatchesSerial: Phase-2 sub-clique scores
// computed across workers, through each parent's pinned pair statistics,
// equal a fresh serial Model.Score of every sub-clique on the post-Phase-1
// graph, and a whole round's output and residual match at Parallelism 1,
// 2 and 8 — with Phase 2 accepting something, so the check is not vacuous.
func TestPhase2ParallelScoringMatchesSerial(t *testing.T) {
	m, g0 := pipelineTestSetup(t)
	for _, theta := range []float64{0.9, 0.5} {
		opts := SearchOptions{Theta: theta, R: 40, Seed: 1, Round: 3}

		// Scoring alone: Phase 1 once, then score the candidates serially
		// and fanned out, and compare both with fresh scoring.
		g := g0.Clone()
		key := componentKeys(g, nil)
		groups := map[int][]scoredClique{}
		for _, sc := range scoreCliques(g, m, g.MaximalCliques(2), 1, 1, nil) {
			groups[key[sc.nodes[0]]] = append(groups[key[sc.nodes[0]]], sc)
		}
		keys := make([]int, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		comps := make([]componentRound, len(keys))
		for i, k := range keys {
			comps[i] = searchComponent(g, opts, k, groups[k])
		}
		scores := func(workers int) []float64 {
			var out []float64
			scoreSubcliques(context.Background(), g, m, comps, make([]scorer, workers), workers, 1)
			for _, c := range comps {
				for _, b := range c.batches {
					for j := range b.subs {
						out = append(out, b.subs[j].score)
						b.subs[j].score = -1
					}
				}
			}
			return out
		}
		serial, fanned := scores(1), scores(4)
		var fresh []float64
		for _, c := range comps {
			for _, b := range c.batches {
				for _, sc := range b.subs {
					fresh = append(fresh, m.Score(g, sc.nodes, false))
				}
			}
		}
		if len(fresh) == 0 {
			t.Fatalf("θ=%v: no Phase-2 candidates", theta)
		}
		for i := range fresh {
			if math.Float64bits(serial[i]) != math.Float64bits(fresh[i]) || math.Float64bits(fanned[i]) != math.Float64bits(fresh[i]) {
				t.Fatalf("θ=%v candidate %d: serial %v, 4 workers %v, fresh %v", theta, i, serial[i], fanned[i], fresh[i])
			}
		}

		// Whole rounds.
		round := func(par int, noPhase2 bool) (string, []graph.Edge) {
			g := g0.Clone()
			o := opts
			o.Parallelism, o.ScoreParallelThreshold, o.DisableSubcliques = par, 1, noPhase2
			rec := hypergraph.New(g.NumNodes())
			BidirectionalSearch(g, m, o, rec)
			var b strings.Builder
			if err := rec.Write(&b); err != nil {
				t.Fatal(err)
			}
			return b.String(), g.Edges()
		}
		want, wantResidual := round(1, false)
		if phase1Only, _ := round(1, true); phase1Only == want {
			t.Fatalf("θ=%v: Phase 2 accepted nothing; the round comparison would be vacuous", theta)
		}
		for _, par := range []int{2, 8} {
			got, residual := round(par, false)
			if got != want || !slices.Equal(residual, wantResidual) {
				t.Errorf("θ=%v Parallelism=%d: round diverged from Parallelism 1", theta, par)
			}
		}
	}
}
