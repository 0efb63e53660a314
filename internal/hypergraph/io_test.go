package hypergraph

import (
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	h := New(6)
	h.AddMult([]int{0, 1}, 3)
	h.Add([]int{2, 3, 4})
	h.Add([]int{0, 5})
	var sb strings.Builder
	if err := h.Write(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !h.Equal(got) {
		t.Fatalf("round trip mismatch:\n%s", sb.String())
	}
}

func TestReadFormatVariants(t *testing.T) {
	in := `
% a comment
1 2 3
4 5 # 7

2 1 3
`
	h, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if h.Multiplicity([]int{1, 2, 3}) != 2 {
		t.Fatalf("mult({1,2,3}) = %d, want 2 (order-insensitive)", h.Multiplicity([]int{1, 2, 3}))
	}
	if h.Multiplicity([]int{4, 5}) != 7 {
		t.Fatalf("mult({4,5}) = %d, want 7", h.Multiplicity([]int{4, 5}))
	}
}

func TestReadErrors(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"5", "line 1: hyperedge needs at least 2 distinct nodes"},
		{"a b", "line 1: bad node id"},
		{"1 2 # x", "line 1: bad multiplicity"},
		{"0 1\n-1 2", "line 2: node id -1"},
		{"3 3", "line 1: hyperedge needs at least 2 distinct nodes"},
		{"1 2 # 0", "line 1: multiplicity 0"},
		{"1 2 # -4", "line 1: multiplicity -4"},
		{"1 2147483647", "line 1: node id 2147483647"},
		{"1 99999999999999999999", "line 1: bad node id"},
		{"1 2 # 2147483648", "line 1: multiplicity 2147483648"},
		{"1 2 # 2147483647\n2 1", "line 2: multiplicity of [1 2] overflows"},
	} {
		_, err := Read(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Read(%q) = %v, want an error containing %q", tc.in, err, tc.want)
		}
	}
	// The largest valid values still parse.
	h, err := Read(strings.NewReader("0 2147483646 # 2147483646\n0 2147483646"))
	if err != nil || h.Multiplicity([]int{0, 2147483646}) != 2147483647 {
		t.Fatalf("largest valid input: %v", err)
	}
}
