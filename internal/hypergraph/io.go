package hypergraph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Write serializes the hypergraph in a line-oriented text format: one
// unique hyperedge per line as space-separated node ids, followed by
// "# <multiplicity>" when the multiplicity exceeds 1. Lines are sorted by
// node set for reproducible output.
func (h *Hypergraph) Write(w io.Writer) error {
	order := make([]int, h.NumUnique())
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int { return slices.Compare(h.edge(i), h.edge(j)) })
	bw := bufio.NewWriter(w)
	var line []byte
	for _, id := range order {
		line = line[:0]
		for i, u := range h.edge(id) {
			if i > 0 {
				line = append(line, ' ')
			}
			line = strconv.AppendInt(line, int64(u), 10)
		}
		if m := h.mults[id]; m > 1 {
			line = append(line, " # "...)
			line = strconv.AppendInt(line, int64(m), 10)
		}
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses the format produced by Write. Blank lines and lines starting
// with "%" are skipped. Input that AddMult would reject — a node id outside
// [0, math.MaxInt32), fewer than two distinct nodes, a multiplicity below 1,
// or a hyperedge whose multiplicity summed over its lines leaves the int32
// range — is reported as a line-numbered error.
func Read(r io.Reader) (*Hypergraph, error) {
	h := New(0)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	var nodes []int
	for sc.Scan() {
		lineNo++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "%") {
			continue
		}
		mult := 1
		if i := strings.Index(text, "#"); i >= 0 {
			m, err := strconv.Atoi(strings.TrimSpace(text[i+1:]))
			if err != nil {
				return nil, fmt.Errorf("hypergraph: line %d: bad multiplicity: %v", lineNo, err)
			}
			if m < 1 || m > math.MaxInt32 {
				return nil, fmt.Errorf("hypergraph: line %d: multiplicity %d outside [1, %d]", lineNo, m, math.MaxInt32)
			}
			mult = m
			text = strings.TrimSpace(text[:i])
		}
		fields := strings.Fields(text)
		nodes = nodes[:0]
		for _, f := range fields {
			u, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("hypergraph: line %d: bad node id %q", lineNo, f)
			}
			if u < 0 || u >= math.MaxInt32 {
				return nil, fmt.Errorf("hypergraph: line %d: node id %d outside [0, %d)", lineNo, u, math.MaxInt32)
			}
			nodes = append(nodes, u)
		}
		canon := canonical(nodes)
		if len(canon) < 2 {
			return nil, fmt.Errorf("hypergraph: line %d: hyperedge needs at least 2 distinct nodes", lineNo)
		}
		if prev := h.Multiplicity(canon); prev+mult > math.MaxInt32 {
			return nil, fmt.Errorf("hypergraph: line %d: multiplicity of %v overflows an int32 (%d + %d)", lineNo, canon, prev, mult)
		}
		h.AddMult(canon, mult)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return h, nil
}
