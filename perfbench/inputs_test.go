package main

import (
	"bytes"
	"slices"
	"testing"
	"time"
)

// The same seed must give byte-identical inputs, and another seed other
// inputs.
func TestInputsArePureFunctionsOfSeed(t *testing.T) {
	gens := map[string]func(seed int64) []byte{
		"dense-eu": func(seed int64) []byte {
			in, err := genDense(seed)
			if err != nil {
				t.Fatal(err)
			}
			return in.bytes()
		},
		"session-window-dblp": func(seed int64) []byte {
			in, err := genWindow(seed)
			if err != nil {
				t.Fatal(err)
			}
			return in.bytes(3 * windowW)
		},
		"serve-mixed": func(seed int64) []byte {
			in, err := genServe(seed, 3*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			return in.bytes()
		},
	}
	for name, gen := range gens {
		a, b, other := gen(7), gen(7), gen(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave different inputs on two calls", name)
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", name)
		}
	}
}

// After any number of batches the window's graph is exactly the
// projection of its ground truth: base plus the live hyperedges.
func TestFeedGraphProjectsFromTruth(t *testing.T) {
	src, tgt, err := dataset("pschool", 4)
	if err != nil {
		t.Fatal(err)
	}
	base := tgt.Project()
	f := newFeed(base, src.UniqueEdges(), 2, 3)
	for i := 0; i < 10; i++ {
		f.batch()
		if got, want := f.shadow.Edges(), f.truth(tgt).Project().Edges(); !slices.Equal(got, want) {
			t.Fatalf("after batch %d: window graph differs from its truth's projection", i)
		}
		if live := len(f.live); live > 3 {
			t.Fatalf("after batch %d: %d live batches, want ≤ 3", i, live)
		}
	}
}

func TestServeScheduleMix(t *testing.T) {
	in, err := genServe(3, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.requests) != int(serveRate*10) {
		t.Fatalf("got %d requests, want %d", len(in.requests), int(serveRate*10))
	}
	applies := 0
	targets := map[string]bool{}
	for _, r := range in.requests {
		if r.apply {
			applies++
			continue
		}
		if targets[r.text] {
			t.Fatalf("request target %s@%d repeats an earlier one", r.dataset, r.genSeed)
		}
		targets[r.text] = true
	}
	if want := len(in.requests) * serveApplies / serveBlock; applies != want {
		t.Errorf("got %d session applies, want %d", applies, want)
	}
}
