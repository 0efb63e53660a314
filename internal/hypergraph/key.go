package hypergraph

import (
	"encoding/binary"
	"sort"
)

// Key returns a canonical, compact string key for a node set: the nodes are
// sorted ascending and delta-encoded as unsigned varints. Two node sets map
// to the same key iff they are equal as sets. The input slice is not
// modified.
//
// Keys are the workhorse of hypergraph equality testing (Jaccard and
// multi-Jaccard similarity compare key sets), so the encoding is kept as
// small as possible: on typical hyperedges (< 128 node-id deltas) a key is
// one byte per node.
func Key(nodes []int) string {
	s := make([]int, len(nodes))
	copy(s, nodes)
	sort.Ints(s)
	var buf [binary.MaxVarintLen64]byte
	out := make([]byte, 0, len(s)*2)
	prev, first := 0, true
	for _, v := range s {
		if !first && v == prev {
			continue // set semantics: ignore duplicates
		}
		d := v - prev
		if first {
			d = v
		}
		if d < 0 {
			panic("hypergraph: negative node in edge")
		}
		n := binary.PutUvarint(buf[:], uint64(d))
		out = append(out, buf[:n]...)
		prev, first = v, false
	}
	return string(out)
}

// KeySorted is like Key but assumes nodes is already sorted ascending with
// no duplicates, avoiding the copy and sort.
func KeySorted(nodes []int) string {
	var buf [binary.MaxVarintLen64]byte
	out := make([]byte, 0, len(nodes)*2)
	prev := 0
	for i, v := range nodes {
		d := v - prev
		if i == 0 {
			d = v
		}
		if d < 0 || (i > 0 && d == 0) {
			panic("hypergraph: KeySorted input not strictly sorted")
		}
		n := binary.PutUvarint(buf[:], uint64(d))
		out = append(out, buf[:n]...)
		prev = v
	}
	return string(out)
}

// DecodeKey inverts Key, returning the sorted node set. It panics on a
// malformed key.
func DecodeKey(key string) []int {
	out, ok := decodeKey(key)
	if !ok {
		panic("hypergraph: malformed key")
	}
	return out
}

// decodeKey is DecodeKey reporting a truncated or overlong varint instead
// of panicking.
func decodeKey(key string) ([]int, bool) {
	b := []byte(key)
	var out []int
	prev := 0
	for len(b) > 0 {
		d, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, false
		}
		b = b[n:]
		if len(out) == 0 {
			prev = int(d)
		} else {
			prev += int(d)
		}
		out = append(out, prev)
	}
	return out, true
}
