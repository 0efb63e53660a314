package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"testing"

	"marioh/internal/datasets"
)

// euTargetDigest is the sha256 of the written reconstruction of the eu
// analog's seed-1 target half (multiplicity-reduced), by a model trained
// with TrainOptions{Seed: 1} on its source half and Options{Seed: 1}. It
// was recorded from the engine before Phase 2 scored sub-cliques from
// their parent's pair statistics and before the compact hypergraph
// storage, so it pins both changes to the old bytes at a scale the corpus
// families do not reach (1988 unique hyperedges over 42 rounds).
const euTargetDigest = "52a802838b8be50d0f2158087e9417fc89f8825444ea92ef82b4d15e34af8181"

// TestEUScaleOutputPinned reconstructs the eu target serially and with two
// workers and requires both to hash to euTargetDigest and to project back
// to the input graph exactly.
func TestEUScaleOutputPinned(t *testing.T) {
	ds := datasets.MustByName("eu", 1)
	src, tgt := ds.Source.Reduced(), ds.Target.Reduced()
	m := Train(src.Project(), src, TrainOptions{Seed: 1})
	g := tgt.Project()
	for _, par := range []int{1, 2} {
		res := Reconstruct(g, m, Options{Seed: 1, Parallelism: par})
		var b bytes.Buffer
		if err := res.Hypergraph.Write(&b); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b.Bytes())
		if got := hex.EncodeToString(sum[:]); got != euTargetDigest {
			t.Errorf("Parallelism=%d: digest %s, want %s (%d unique hyperedges, %d rounds)",
				par, got, euTargetDigest, res.Hypergraph.NumUnique(), res.Times.Rounds)
		}
		if !slices.Equal(res.Hypergraph.Project().Edges(), g.Edges()) {
			t.Errorf("Parallelism=%d: reconstruction does not project back to the input graph", par)
		}
	}
}
