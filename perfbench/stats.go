package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"
)

// tailMinBeyond is how many samples must lie beyond the reported tail
// percentile: a tail read from fewer samples is one outlier, not a tail.
const tailMinBeyond = 10

// tail is the highest percentile of a sample set that still has at least
// tailMinBeyond samples beyond it, reported with its percentile and the
// sample count so a reader can tell a p90 from a p23.
type tail struct {
	Value      float64
	Percentile float64
	N          int
}

// tailOf returns the tail of samples. With n samples the reported value is
// the (n−10)-th smallest, which leaves exactly ten samples above it (ties
// aside); below eleven samples no percentile qualifies, and the minimum is
// reported with percentile 0.
func tailOf(samples []float64) tail {
	n := len(samples)
	if n == 0 {
		return tail{}
	}
	s := sortedCopy(samples)
	idx := n - 1 - tailMinBeyond
	if idx < 0 {
		return tail{Value: s[0], N: n}
	}
	return tail{Value: s[idx], Percentile: 100 * float64(idx+1) / float64(n), N: n}
}

// median returns the median of samples (the mean of the middle two for an
// even count), or 0 for none.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := sortedCopy(samples)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// outcome is how one attempted op ended, from the client's side.
type outcome struct {
	// Latency is measured from when the op was due (open loop) or started
	// (closed loop) to when its reply arrived.
	Latency time.Duration
	// Status is the HTTP status of a served op; 0 for a library call.
	Status int
	// Err is a transport or library error.
	Err error
	// Mismatch marks an op whose output failed the correctness oracle.
	Mismatch bool
}

// ok reports whether the op succeeded: no error, no refusal (429), no
// server fault (5xx) or other non-2xx status, and output that passed the
// oracle.
func (o outcome) ok() bool {
	if o.Err != nil || o.Mismatch {
		return false
	}
	return o.Status == 0 || (o.Status >= 200 && o.Status < 300)
}

// ratios returns the share of attempted ops that failed, and the share
// that succeeded within limit. A failed op misses the limit whatever its
// latency.
func ratios(ops []outcome, limit time.Duration) (failed, sloOK float64) {
	if len(ops) == 0 {
		return 0, 0
	}
	nFailed, nOK := 0, 0
	for _, o := range ops {
		switch {
		case !o.ok():
			nFailed++
		case o.Latency <= limit:
			nOK++
		}
	}
	return float64(nFailed) / float64(len(ops)), float64(nOK) / float64(len(ops))
}

// okLatenciesMS returns the latencies of the successful ops in ms.
func okLatenciesMS(ops []outcome) []float64 {
	var out []float64
	for _, o := range ops {
		if o.ok() {
			out = append(out, ms(o.Latency))
		}
	}
	return out
}

// poissonSchedule draws the due times of an open loop of Poisson arrivals
// at rate per second over window, conditioned on the expected count: the
// arrival times of a Poisson process with n arrivals in a window are n
// sorted uniform draws. Fixing n keeps the offered load, and so the
// throughput a healthy run reports, the same on every seed.
func poissonSchedule(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	n := int(rate*window.Seconds() + 0.5)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Int63n(int64(window)))
	}
	slices.Sort(due)
	return due
}

// openLoopTiming times one open-loop op: latency runs from the op's due
// time, so a stall that delays later sends is charged to them, and lag is
// how late the generator actually sent it.
func openLoopTiming(due, sent, done time.Time) (latency, lag time.Duration) {
	return done.Sub(due), max(sent.Sub(due), 0)
}

// quantileLine formats the spread of samples for the run's notes.
func quantileLine(samples []float64) string {
	if len(samples) == 0 {
		return "-"
	}
	s := sortedCopy(samples)
	at := func(q float64) float64 { return s[min(int(q*float64(len(s))), len(s)-1)] }
	return fmt.Sprintf("%.1f/%.1f/%.1f/%.1f/%.1f/%.1f", at(0.1), at(0.25), at(0.5), at(0.75), at(0.9), s[len(s)-1])
}
