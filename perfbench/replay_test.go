package main

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"marioh"
	"marioh/internal/core"
	"marioh/internal/graph"
)

// smallModel trains a quick classifier on a small analog's source half.
func smallModel(t *testing.T, name string, genSeed int64) (*marioh.Model, *graph.Graph) {
	t.Helper()
	src, tgt, err := dataset(name, genSeed)
	if err != nil {
		t.Fatal(err)
	}
	r, err := marioh.New(marioh.WithSeed(modelSeed), marioh.WithEpochs(15))
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Train(context.Background(), src.Project(), src)
	if err != nil {
		t.Fatal(err)
	}
	return m, tgt.Project()
}

// The traced run's per-layer numbers describe the program only if the
// external round loop reproduces Reconstruct's bytes, traced or not, at
// every parallelism.
func TestReplayMatchesReconstruct(t *testing.T) {
	ctx := context.Background()
	m, g := smallModel(t, "pschool", 2)
	for _, par := range []int{1, 2} {
		r, err := marioh.New(marioh.WithModel(m), marioh.WithSeed(modelSeed), marioh.WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Reconstruct(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		want := hgBytes(res.Hypergraph)
		opts := core.Options{Seed: modelSeed, Parallelism: par}
		plain, err := replay(ctx, g, m, opts, nil, nil, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		traced, err := replay(ctx, g, m, opts, nil, tr, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(hgBytes(plain), want) || !bytes.Equal(hgBytes(traced), want) {
			t.Fatalf("parallelism %d: replay differs from Reconstruct", par)
		}
		if got := int(tr.counts["core.rounds"]); got != res.Times.Rounds {
			t.Errorf("parallelism %d: replay ran %d rounds, Reconstruct %d", par, got, res.Times.Rounds)
		}
		if int(tr.counts["core.filter_size2"]) != res.FilteredSize2 {
			t.Errorf("parallelism %d: filter emitted %v, Reconstruct %d", par, tr.counts["core.filter_size2"], res.FilteredSize2)
		}
		if tr.counts["features.calls"] == 0 || tr.total("core.search") <= 0 {
			t.Errorf("parallelism %d: traced replay recorded no layer work: %v", par, tr.counts)
		}
	}
}

// On a piece of a graph (the session's dirty components) the replay must
// reproduce core.ReconstructPiece, whose components are keyed by original
// node ids.
func TestReplayMatchesPiece(t *testing.T) {
	ctx := context.Background()
	m, g := smallModel(t, "dblp", 2)
	var nodes []int
	kept := 0
	for _, c := range g.ConnectedComponents() {
		if len(c) < 2 {
			continue
		}
		if kept%2 == 0 {
			nodes = append(nodes, c...)
		}
		kept++
	}
	if kept < 3 {
		t.Fatalf("test graph has %d components, want several", kept)
	}
	slices.Sort(nodes)
	sub, back := g.Subgraph(nodes)
	if sub.NumEdges() == 0 {
		t.Fatal("test piece has no edges")
	}
	opts := core.Options{Seed: modelSeed}
	want, err := core.ReconstructPiece(ctx, sub, m, opts, back)
	if err != nil {
		t.Fatal(err)
	}
	got, err := replay(ctx, sub, m, opts, back, newTracer(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hgBytes(got), hgBytes(want.Hypergraph)) {
		t.Fatal("replay differs from ReconstructPiece on a piece")
	}
	if !projectsTo(got, sub) {
		t.Fatal("replayed piece does not project back to its input")
	}
}
