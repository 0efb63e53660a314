package graph

import (
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	g := New(7)
	g.AddWeight(0, 3, 4)
	g.AddWeight(1, 2, 1)
	var sb strings.Builder
	if err := g.Write(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != 7 {
		t.Fatalf("nodes = %d, want 7 (header)", got.NumNodes())
	}
	if got.Weight(0, 3) != 4 || got.Weight(1, 2) != 1 {
		t.Fatal("weights lost in round trip")
	}
	if got.NumEdges() != 2 {
		t.Fatalf("edges = %d", got.NumEdges())
	}
}

func TestReadDefaultsWeight(t *testing.T) {
	g, err := Read(strings.NewReader("0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.Weight(0, 1) != 1 {
		t.Fatal("missing weight should default to 1")
	}
}

func TestReadErrors(t *testing.T) {
	for _, in := range []string{"0", "0 1 2 3", "a 1", "0 b", "0 1 -2"} {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Fatalf("input %q should fail", in)
		}
	}
}

// TestReadHostileInput: input that would trip a graph primitive's panic
// (self-loop, negative node, int32 weight overflow, alone or summed over
// repeated lines) is a line-numbered error instead.
func TestReadHostileInput(t *testing.T) {
	for _, c := range []struct {
		in, want string
	}{
		{"3 3", "line 1: self-loop"},
		{"0 1\n2 2 4", "line 2: self-loop"},
		{"-1 2", "line 1: bad node"},
		{"1 -2", "line 1: bad node"},
		{"0 3000000000", "line 1: bad node"},
		{"0 1 3000000000", "line 1: weight of {0, 1} overflows int32"},
		{"0 1 2147483647\n1 0 1", "line 2: weight of {1, 0} overflows int32"},
	} {
		_, err := Read(strings.NewReader(c.in))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Read(%q) = %v, want error containing %q", c.in, err, c.want)
		}
	}
	g, err := Read(strings.NewReader("0 1 2147483646\n1 0 1"))
	if err != nil || g.Weight(0, 1) != 2147483647 {
		t.Fatalf("weight summing to MaxInt32 must load: err=%v", err)
	}
}
