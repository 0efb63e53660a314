// Command perfbench is the repository's benchmark: one command that
// generates a workload's inputs from a seed, runs the workload for a fixed
// time, checks every output against an independent serial reference, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer ones).
// See README.md in this directory for the workloads and every metric.
//
//	perfbench --workload dense-eu --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow set-up does not move it.
const setupReps = 3

// runConfig is one invocation's settings.
type runConfig struct {
	seed   int64
	window time.Duration
	trace  bool
	nproc  int
}

// metric is one reported number.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// report is what a workload run hands back to main.
type report struct {
	// shape describes the generated inputs, one line per fact.
	shape []string
	// notes are printed after the shape: tail percentiles with their n,
	// failure breakdowns, oracle results.
	notes     []string
	attempted int
	failed    int
	correct   bool
	metrics   []metric
	tr        *tracer
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Value: v})
}

// settle counts the attempted and failed ops; the run is correct when
// none failed.
func (r *report) settle(ops []outcome) {
	r.attempted, r.failed = len(ops), 0
	for _, o := range ops {
		if !o.ok() {
			r.failed++
		}
	}
	r.correct = r.failed == 0
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workload is one benchmark workload.
type workload struct {
	name string
	run  func(ctx context.Context, cfg runConfig) (*report, error)
}

var workloads = []workload{
	{"dense-eu", runDense},
	{"session-window-dblp", runWindow},
	{"serve-mixed", runServe},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "measurement window in seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	traceDir := fs.String("trace-dir", "", "directory to write the traced run's spans to (empty = keep them in memory only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (want --workload, --seed, --seconds > 0, --trace 0|1)\n")
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, workloadNames())
		return 2
	}
	cfg := runConfig{
		seed:   *seed,
		window: time.Duration(*seconds) * time.Second,
		trace:  *trace == 1,
		nproc:  runtime.GOMAXPROCS(0),
	}
	rep, err := w.run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if rep.tr != nil && *traceDir != "" {
		if err := rep.tr.write(*traceDir, w.name, *seed); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing trace: %v\n", err)
		}
	}
	if err := printReport(stdout, w.name, cfg, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// printReport prints the human-readable lines, then the JSON result as
// the last line. A metric that is not a finite number is an error: the
// result line is not printed.
func printReport(w io.Writer, name string, cfg runConfig, rep *report) error {
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d window=%s %s GOMAXPROCS=%d\n", name, cfg.seed, cfg.window, mode, cfg.nproc)
	for _, l := range rep.shape {
		fmt.Fprintf(w, "  input: %s\n", l)
	}
	for _, l := range rep.notes {
		fmt.Fprintf(w, "  %s\n", l)
	}
	sorted := append([]metric(nil), rep.metrics...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for _, m := range sorted {
		fmt.Fprintf(w, "  %-44s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, map[string]value{}}
	for _, m := range rep.metrics {
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
