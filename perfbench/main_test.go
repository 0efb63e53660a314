package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// Bad arguments exit non-zero without printing a result line.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--workload", "dense-eu", "--trace", "2"},
		{"--workload", "dense-eu", "--seconds", "0"},
		{"--workload", "dense-eu", "extra"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("%v: exit code 0", args)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q on stdout", args, out.String())
		}
	}
}

// A short traced serve-mixed run drives the concurrent open loop, the
// scraper and the oracle end to end and must end with a correct result
// line holding every per-layer metric.
func TestServeMixedTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("trains three models and boots mariohd")
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "serve-mixed", "--seed", "3", "--seconds", "2", "--trace", "1"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != int(2*serveRate) {
		t.Fatalf("result %+v", res)
	}
	for _, name := range []string{"server.compute_ms_per_req", "admission.dedup_hits", "core.rounds_per_op", "bench.trace_overhead_ratio"} {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("metric %s missing", name)
		}
	}
	if res.Metrics["server.compute_ms_per_req"].Value <= 0 || res.Metrics["admission.dedup_hits"].Value != 0 {
		t.Errorf("server metrics %+v", res.Metrics)
	}
}
