package marioh_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"marioh"
)

// Example demonstrates the documented package-level flow: project a
// hypergraph, train a Reconstructor on it, and reconstruct the hypergraph
// from the projection alone.
func Example() {
	truth := marioh.NewHypergraph(6)
	truth.Add([]int{0, 1, 2})
	truth.Add([]int{3, 4})
	truth.Add([]int{4, 5})

	ctx := context.Background()
	g := truth.Project()
	r, err := marioh.New(marioh.WithSeed(1))
	if err != nil {
		panic(err)
	}
	if _, err := r.Train(ctx, g, truth); err != nil {
		panic(err)
	}
	res, err := r.Reconstruct(ctx, g)
	if err != nil {
		panic(err)
	}
	fmt.Printf("Jaccard %.2f\n", marioh.Jaccard(truth, res.Hypergraph))
	// Output: Jaccard 1.00
}

// TestPublicAPIEndToEnd exercises the train → reconstruct → evaluate flow
// on a multiplicity-bearing hypergraph.
func TestPublicAPIEndToEnd(t *testing.T) {
	truth := marioh.NewHypergraph(9)
	truth.AddMult([]int{0, 1}, 2)
	truth.Add([]int{0, 1, 2})
	truth.Add([]int{3, 4, 5})
	truth.Add([]int{5, 6})
	truth.Add([]int{6, 7, 8})

	ctx := context.Background()
	g := truth.Project()
	r, err := marioh.New(marioh.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Train(ctx, g, truth); err != nil {
		t.Fatal(err)
	}
	res, err := r.Reconstruct(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if j := marioh.Jaccard(truth, res.Hypergraph); j < 0.99 {
		t.Fatalf("Jaccard = %v", j)
	}
	if mj := marioh.MultiJaccard(truth, res.Hypergraph); mj < 0.99 {
		t.Fatalf("multi-Jaccard = %v", mj)
	}
}

func TestGenerateDatasetAPI(t *testing.T) {
	names := marioh.DatasetNames()
	if len(names) == 0 {
		t.Fatal("no datasets")
	}
	ds, err := marioh.GenerateDataset("crime", 1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Source.NumUnique() == 0 || ds.Target.NumUnique() == 0 {
		t.Fatal("empty split")
	}
	if _, err := marioh.GenerateDataset("unknown", 1); err == nil {
		t.Fatal("unknown dataset must error")
	}
}

func TestReadersAPI(t *testing.T) {
	h, err := marioh.ReadHypergraph(strings.NewReader("0 1 2\n3 4 # 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if h.NumTotal() != 3 {
		t.Fatalf("NumTotal = %d", h.NumTotal())
	}
	g, err := marioh.ReadGraph(strings.NewReader("0 1 5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.Weight(0, 1) != 5 {
		t.Fatal("graph reader lost weight")
	}
}

func TestDownstreamAPI(t *testing.T) {
	h := marioh.NewHypergraph(10)
	h.Add([]int{0, 1, 2, 3, 4})
	h.Add([]int{5, 6, 7, 8, 9})
	h.Add([]int{0, 1, 2})
	h.Add([]int{5, 6, 7})
	g := h.Project()
	labels := []int{0, 0, 0, 0, 0, 1, 1, 1, 1, 1}
	if nmi := marioh.ClusteringNMI(g, h, labels, 1); nmi < 0.9 {
		t.Fatalf("NMI = %v", nmi)
	}
	if auc := marioh.LinkPredictionAUC(g, h, 1); auc < 0.5 {
		t.Fatalf("AUC = %v", auc)
	}
}
