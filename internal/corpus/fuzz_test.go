package corpus

import (
	"bytes"
	"context"
	"testing"

	"marioh/internal/core"
	"marioh/internal/graph"
	"marioh/internal/incremental"
)

// fuzzNodes bounds the delta universe so every fuzz iteration
// reconstructs in milliseconds while still exercising merges, splits,
// clique churn and reverts.
const fuzzNodes = 24

// fuzzBase is the fixed starting graph of every fuzz run: two triangles,
// a 4-path and spare isolated nodes — enough structure that deletes and
// splits mean something from the first op.
func fuzzBase() *graph.Graph {
	g := graph.New(fuzzNodes)
	g.AddWeight(0, 1, 2)
	g.AddWeight(0, 2, 1)
	g.AddWeight(1, 2, 1)
	g.AddWeight(4, 5, 1)
	g.AddWeight(4, 6, 2)
	g.AddWeight(5, 6, 1)
	g.AddWeight(8, 9, 1)
	g.AddWeight(9, 10, 1)
	g.AddWeight(10, 11, 1)
	return g
}

// decodeOps interprets arbitrary fuzz bytes as a delta sequence: each op
// consumes 4 bytes (kind, u, v, w) reduced into the fuzz universe. Every
// byte string decodes to a valid stream — adds are positive, sets
// non-negative, self-loops dropped — so the fuzzer spends its budget on
// engine states, not wire-format rejections (FuzzWALReplay owns those).
func decodeOps(data []byte) []graph.DeltaOp {
	var ops []graph.DeltaOp
	for ; len(data) >= 4; data = data[4:] {
		u, v := int(data[1])%fuzzNodes, int(data[2])%fuzzNodes
		if u == v {
			continue
		}
		switch data[0] % 3 {
		case 0:
			ops = append(ops, graph.DeltaOp{Kind: graph.DeltaAdd, U: u, V: v, W: 1 + int(data[3])%3})
		case 1:
			ops = append(ops, graph.DeltaOp{Kind: graph.DeltaRemove, U: u, V: v})
		default:
			ops = append(ops, graph.DeltaOp{Kind: graph.DeltaSet, U: u, V: v, W: int(data[3]) % 4})
		}
	}
	return ops
}

// encodeOps is decodeOps's inverse for seeding: it folds a real delta
// stream (e.g. a corpus family's) into the fuzz byte format.
func encodeOps(ops []graph.DeltaOp) []byte {
	out := make([]byte, 0, 4*len(ops))
	for _, op := range ops {
		var kind, w byte
		switch op.Kind {
		case graph.DeltaAdd:
			kind, w = 0, byte((op.W-1)%3)
		case graph.DeltaRemove:
			kind, w = 1, 0
		case graph.DeltaSet:
			kind, w = 2, byte(op.W%4)
		}
		out = append(out, kind, byte(op.U%fuzzNodes), byte(op.V%fuzzNodes), w)
	}
	return out
}

// FuzzDeltaSequence replays arbitrary delta sequences through the
// incremental engine in batches, with a from-scratch reconstruction of an
// identically-mutated shadow graph as the oracle after every batch — the
// byte-identical output contract, driven by fuzzed inputs instead of the
// engineered corpus streams. The checked-in seeds under
// testdata/fuzz/FuzzDeltaSequence (plus the f.Add seeds derived from the
// corpus families) replay on every ordinary `go test`; the nightly
// corpus-fuzz job explores from them with a real fuzzing budget.
func FuzzDeltaSequence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3})
	// Merge/split toggling on one pair, and an add/remove/set braid.
	f.Add(bytes.Repeat([]byte{0, 3, 7, 1, 1, 3, 7, 0}, 8))
	f.Add(bytes.Repeat([]byte{0, 0, 12, 2, 2, 0, 12, 0, 2, 0, 12, 2}, 6))
	// The corpus families' own streams, folded into the fuzz universe.
	for _, fam := range Families {
		f.Add(encodeOps(fam.Deltas(1, 40)))
	}

	m := testModel()
	opts := core.Options{Seed: 1}
	f.Fuzz(func(t *testing.T, data []byte) {
		const batch = 8
		ops := decodeOps(data)
		if len(ops) > 400 {
			ops = ops[:400] // bound a single iteration's work
		}
		shadow := fuzzBase()
		eng := incremental.New(fuzzBase(), m, core.Options{Seed: 1, Parallelism: 2})
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
				t.Fatalf("ops [%d,%d): engine bytes diverge from from-scratch rebuild "+
					"(%d vs %d unique hyperedges)", start, end,
					got.Hypergraph.NumUnique(), want.Hypergraph.NumUnique())
			}
			if start >= len(ops) {
				break
			}
		}
	})
}
