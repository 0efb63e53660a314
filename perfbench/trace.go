package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Spans of one op share Op; Parent is the ID of the span that caused it
// (0 for an op's root).
type span struct {
	Op     int     `json:"op"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	closed bool
}

// tracer keeps spans and counters in memory for the traced run; it is
// written out once the run ends. A nil *tracer records nothing, so the
// same code paths serve untraced runs and tests. A tracer is used from
// one goroutine.
type tracer struct {
	t0     time.Time
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}}
}

// start opens a span and returns its ID.
func (t *tracer) start(op, parent int, name string) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name, Start: ms(time.Since(t.t0))})
	return id
}

// stop closes the span with the given ID and returns its duration in ms.
func (t *tracer) stop(id int) float64 {
	if t == nil || id == 0 {
		return 0
	}
	s := &t.spans[id-1]
	s.End = ms(time.Since(t.t0))
	s.closed = true
	return s.End - s.Start
}

// count adds v to a named counter.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.counts[name] += v
}

// total returns the summed duration in ms of the closed spans named name.
func (t *tracer) total(name string) float64 {
	sum := 0.0
	for _, s := range t.spans {
		if s.Name == name && s.closed {
			sum += s.End - s.Start
		}
	}
	return sum
}

// write saves the spans and counters as JSON under dir.
func (t *tracer) write(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	b, err := json.Marshal(struct {
		Spans  []span             `json:"spans"`
		Counts map[string]float64 `json:"counts"`
	}{t.spans, t.counts})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
