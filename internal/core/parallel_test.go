package core

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"marioh/internal/datasets"
	"marioh/internal/graph"
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
	want := scoreCliques(g, m, wantCliques, 1, defaultScoreParallelThreshold)
	sortByScoreDesc(want)

	check := func(label string, workers, threshold int) {
		t.Helper()
		got, truncated := enumerateScored(g, m, -1, workers, threshold, nil)
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
		ref := scoreCliques(g, m, g.MaximalCliquesLimit(2, limit), 1, defaultScoreParallelThreshold)
		for _, workers := range []int{1, 2, 4, 8} {
			got, truncated := enumerateScored(g, m, limit, workers, 1, nil)
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
