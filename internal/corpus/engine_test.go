package corpus

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"

	"marioh/internal/core"
	"marioh/internal/graph"
	"marioh/internal/hypergraph"
	"marioh/internal/incremental"
)

// applyToShadow mirrors one delta op onto a plain graph the way the
// engine's Tracker does, giving the tests an independently-mutated graph
// to rebuild from scratch.
func applyToShadow(g *graph.Graph, op graph.DeltaOp) {
	top := op.U
	if op.V > top {
		top = op.V
	}
	g.EnsureNodes(top + 1)
	switch op.Kind {
	case graph.DeltaAdd:
		g.AddWeight(op.U, op.V, op.W)
	case graph.DeltaRemove:
		g.RemoveEdge(op.U, op.V)
	case graph.DeltaSet:
		g.SetWeight(op.U, op.V, op.W)
	}
}

// checkProjects fails t unless the clique expansion of h is exactly g,
// edge for edge and weight for weight: an oracle every correct
// reconstruction meets whatever the classifier does, so it does not
// depend on the engine agreeing with itself.
func checkProjects(t testing.TB, what string, h *hypergraph.Hypergraph, g *graph.Graph) {
	t.Helper()
	if got, want := h.Project().Edges(), g.Edges(); !slices.Equal(got, want) {
		t.Errorf("%s: projection differs from the input graph (%d edges, input has %d)", what, len(got), len(want))
	}
}

func renderResult(t testing.TB, res *core.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Hypergraph.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEngineMatchesRebuildOverCorpus is the corpus-wide acceptance
// property: replaying every family's adversarial delta stream through
// the incremental engine, batch by batch, must reproduce a from-scratch
// reconstruction of the mutated graph byte for byte after every batch.
// This is the same oracle FuzzDeltaSequence drives with arbitrary
// streams; here it runs the engineered worst cases on every `go test`.
func TestEngineMatchesRebuildOverCorpus(t *testing.T) {
	const total, batch = 60, 15
	m := testModel()
	for _, f := range Families {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			opts := core.Options{Seed: 1}
			shadow := f.Gen(1)
			eng := incremental.New(f.Gen(1), m, core.Options{Seed: 1, Parallelism: 2})
			ops := f.Deltas(1, total)
			for start := 0; start <= len(ops); start += batch {
				end := start + batch
				if end > len(ops) {
					end = len(ops)
				}
				var ba []graph.DeltaOp
				if start < end {
					ba = ops[start:end]
				}
				for _, op := range ba {
					applyToShadow(shadow, op)
				}
				got, err := eng.Apply(context.Background(), ba)
				if err != nil {
					t.Fatalf("ops [%d,%d): %v", start, end, err)
				}
				want, err := core.ReconstructContext(context.Background(), shadow, m, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(renderResult(t, got), renderResult(t, want)) {
					t.Fatalf("ops [%d,%d): engine output diverges from from-scratch rebuild "+
						"(%d vs %d unique hyperedges)", start, end,
						got.Hypergraph.NumUnique(), want.Hypergraph.NumUnique())
				}
				checkProjects(t, fmt.Sprintf("ops [%d,%d): engine", start, end), got.Hypergraph, shadow)
				if start >= len(ops) {
					break
				}
			}
		})
	}
}

// TestRevertCyclesHitCache pins what makes the revert-cycles family
// adversarial: a structurally reverted graph must land back on its old
// fingerprints, so a full revert cycle recomputes nothing. (A cache bug
// here would not break byte-equality — the oracle above covers that —
// but it would silently void the incremental speedup the sessions sell.)
func TestRevertCyclesHitCache(t *testing.T) {
	f := MustByName("revert-cycles")
	m := testModel()
	eng := incremental.New(f.Gen(1), m, core.Options{Seed: 1, Parallelism: 2})
	if _, err := eng.Apply(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	base := f.Gen(1)
	ops := f.Deltas(1, 200)
	// Find a prefix after which the graph equals the base again (the tail
	// of a revert cycle), replay it as one batch, and demand zero dirty
	// components.
	work := base.Clone()
	cycleEnd := -1
	for i, op := range ops {
		applyToShadow(work, op)
		if i > 0 && renderEqual(work, base) {
			cycleEnd = i + 1
			break
		}
	}
	if cycleEnd < 0 {
		t.Fatal("no complete revert cycle in the first 200 ops; the family lost its point")
	}
	res, err := eng.Apply(context.Background(), ops[:cycleEnd])
	if err != nil {
		t.Fatal(err)
	}
	if res.DirtyComponents != 0 {
		t.Fatalf("fully-reverted batch of %d ops recomputed %d components, want 0",
			cycleEnd, res.DirtyComponents)
	}
}

func renderEqual(a, b *graph.Graph) bool {
	var ba, bb bytes.Buffer
	if a.Write(&ba) != nil || b.Write(&bb) != nil {
		return false
	}
	return bytes.Equal(ba.Bytes(), bb.Bytes())
}
