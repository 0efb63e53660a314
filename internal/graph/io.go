package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Write serializes the graph as a weighted edge list: "u v w" per line
// with u < v, in sorted order.
func (g *Graph) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%% nodes %d\n", g.NumNodes()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d %d\n", e.U, e.V, e.W); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses the format produced by Write: an optional "% nodes N" header
// followed by "u v w" lines (w defaults to 1 when omitted; repeated pairs
// add up). Blank lines and "%" comments are skipped. Malformed input —
// negative or non-int32 node ids, self-loops, non-positive weights, or a
// pair whose summed weight overflows int32 — is a line-numbered error,
// never a panic.
func Read(r io.Reader) (*Graph, error) {
	g := New(0)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "%") {
			var n int
			if _, err := fmt.Sscanf(text, "%% nodes %d", &n); err == nil {
				g.EnsureNodes(n)
			}
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("graph: line %d: want \"u v [w]\", got %q", lineNo, text)
		}
		var uv [2]int
		for i := range uv {
			n, err := strconv.Atoi(fields[i])
			if err != nil || n < 0 || n >= math.MaxInt32 {
				return nil, fmt.Errorf("graph: line %d: bad node %q", lineNo, fields[i])
			}
			uv[i] = n
		}
		u, v := uv[0], uv[1]
		if u == v {
			return nil, fmt.Errorf("graph: line %d: self-loop on node %d", lineNo, u)
		}
		w := 1
		if len(fields) == 3 {
			var err error
			w, err = strconv.Atoi(fields[2])
			if err != nil || w <= 0 {
				return nil, fmt.Errorf("graph: line %d: bad weight %q", lineNo, fields[2])
			}
		}
		g.EnsureNodes(max(u, v) + 1)
		// Multiplicities are stored as int32 (see AddWeight), and repeated
		// lines for one pair add up.
		if int64(g.Weight(u, v))+int64(w) > math.MaxInt32 {
			return nil, fmt.Errorf("graph: line %d: weight of {%d, %d} overflows int32", lineNo, u, v)
		}
		g.AddWeight(u, v, w)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return g, nil
}
