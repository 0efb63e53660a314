package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"marioh"
	"marioh/internal/core"
)

// denseSLO is dense-eu's fixed latency limit for slo_ok_ratio.
const denseSLO = 2500 * time.Millisecond

type denseSetup struct {
	in     *denseInputs
	r      *marioh.Reconstructor
	trainS float64
}

// runDense is dense-eu: one caller in a closed loop running
// Reconstructor.Reconstruct on eu targets, at the default Parallelism.
func runDense(ctx context.Context, cfg runConfig) (*report, error) {
	st, setupS, err := setupMedian(func() (*denseSetup, error) {
		in, err := genDense(cfg.seed)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		r, err := trainModel(ctx, in.source)
		if err != nil {
			return nil, err
		}
		return &denseSetup{in: in, r: r, trainS: time.Since(t0).Seconds()}, nil
	}, func(*denseSetup) {})
	if err != nil {
		return nil, err
	}
	rep := &report{shape: st.in.shape()}
	if cfg.trace {
		err = traceDense(ctx, cfg, st, rep)
	} else {
		err = measureDense(ctx, cfg, st, rep, setupS)
	}
	return rep, err
}

func measureDense(ctx context.Context, cfg runConfig, st *denseSetup, rep *report, setupS float64) error {
	in := st.in
	type opRec struct {
		target int
		out    []byte
		res    *marioh.Result
	}
	var ops []outcome
	var recs []opRec
	var gaps []float64
	a0 := allocMB()
	rss := sampleRSS()
	start := time.Now()
	prevEnd := start
	for i := 0; time.Since(start) < cfg.window; i++ {
		t := i % len(in.targets)
		t0 := time.Now()
		gaps = append(gaps, ms(t0.Sub(prevEnd)))
		res, err := st.r.Reconstruct(ctx, in.targets[t])
		prevEnd = time.Now()
		o := outcome{Latency: prevEnd.Sub(t0), Err: err}
		ops = append(ops, o)
		rec := opRec{target: t, res: res}
		if err == nil {
			rec.out = hgBytes(res.Hypergraph)
		}
		recs = append(recs, rec)
	}
	elapsed := time.Since(start)
	allocPerOp := (allocMB() - a0) / float64(len(ops))
	peakRSS := rss.peak()

	// Oracle, outside the timed window: the serial library pipeline on
	// each target reached, plus the projection check on its output.
	used := min(len(ops), len(in.targets))
	refs := make([][]byte, used)
	projOK := make([]bool, used)
	rounds := make([]int, used)
	refErr := make([]error, used)
	serial, err := serialReconstructor(st.r.Model())
	if err != nil {
		return err
	}
	forEach(used, cfg.nproc, func(t int) {
		res, err := serial.Reconstruct(ctx, in.targets[t])
		if err != nil {
			refErr[t] = err
			return
		}
		refs[t] = hgBytes(res.Hypergraph)
		projOK[t] = projectsTo(res.Hypergraph, in.targets[t])
		rounds[t] = res.Times.Rounds
	})
	var jac, mjac []float64
	for t := 0; t < used; t++ {
		if refErr[t] != nil {
			return fmt.Errorf("serial reference on target %d: %w", t, refErr[t])
		}
		if !projOK[t] {
			rep.note("oracle: target %d: reconstruction does not project back to its input", t)
		}
	}
	for i := range ops {
		r := recs[i]
		if ops[i].Err == nil && (!bytes.Equal(r.out, refs[r.target]) || !projOK[r.target]) {
			ops[i].Mismatch = true
		}
		if i < used && ops[i].ok() {
			jac = append(jac, marioh.Jaccard(in.truths[r.target], r.res.Hypergraph))
			mjac = append(mjac, marioh.MultiJaccard(in.truths[r.target], r.res.Hypergraph))
		}
	}
	rep.note("rounds per target (serial reference): %v", rounds)
	closeOut(rep, ops, elapsed, denseSLO, gaps, "closed loop, 1 caller")
	rep.add("setup_s", "s", setupS)
	rep.add("jaccard", "ratio", mean(jac))
	rep.add("multi_jaccard", "ratio", mean(mjac))
	rep.add("alloc_mb_per_op", "MB", allocPerOp)
	rep.add("peak_rss_mb", "MB", peakRSS)
	return nil
}

// closeOut derives the latency, throughput and failure metrics from the
// ops of the measured window and settles correct/attempted/failed.
func closeOut(rep *report, ops []outcome, elapsed time.Duration, slo time.Duration, lagMS []float64, loop string) {
	lat := okLatenciesMS(ops)
	tl := tailOf(lat)
	failedRatio, sloOK := ratios(ops, slo)
	rep.settle(ops)
	rep.note("%s: %d ops in %.2fs, %d failed (failed_ratio=%g)", loop, len(ops), elapsed.Seconds(), rep.failed, failedRatio)
	rep.note("latency_tail_ms is p%.1f of n=%d ok ops (%d beyond it)", tl.Percentile, tl.N, min(tailMinBeyond, max(tl.N-1, 0)))
	rep.note("slo_ok_ratio limit: %s; generator lag tail: %.3f ms", slo, tailOf(lagMS).Value)
	rep.note("latency ms p10/p25/p50/p75/p90/max: %s", quantileLine(lat))
	rep.add("latency_p50_ms", "ms", median(lat))
	rep.add("latency_tail_ms", "ms", tl.Value)
	rep.add("ops_per_s", "1/s", float64(len(lat))/elapsed.Seconds())
	rep.add("slo_ok_ratio", "ratio", sloOK)
}

// traceDense is dense-eu's traced run: for each op it times the plain
// Reconstruct call (the untraced program), replays the same
// reconstruction through the external round loop with spans around every
// layer, and times the serial pipeline for the parallel speed-up. All
// three must produce the same bytes.
func traceDense(ctx context.Context, cfg runConfig, st *denseSetup, rep *report) error {
	in := st.in
	m := st.r.Model()
	serial, err := serialReconstructor(m)
	if err != nil {
		return err
	}
	tr := newTracer()
	rep.tr = tr
	var plainMS, replayMS, serialMS, gaps []float64
	var ops []outcome
	start := time.Now()
	prevEnd := start
	for i := 0; i == 0 || time.Since(start) < cfg.window; i++ {
		t := i % len(in.targets)
		g := in.targets[t]
		gaps = append(gaps, ms(time.Since(prevEnd)))

		s := tr.start(i, 0, "marioh.reconstruct")
		res, err := st.r.Reconstruct(ctx, g)
		plainMS = append(plainMS, tr.stop(s))
		if err != nil {
			return err
		}
		want := hgBytes(res.Hypergraph)

		s = tr.start(i, 0, "replay")
		got, err := replay(ctx, g, m, core.Options{Seed: modelSeed}, nil, tr, i, s)
		replayMS = append(replayMS, tr.stop(s))
		if err != nil {
			return err
		}

		t1 := time.Now()
		sres, err := serial.Reconstruct(ctx, g)
		if err != nil {
			return err
		}
		serialMS = append(serialMS, ms(time.Since(t1)))
		prevEnd = time.Now()

		mismatch := !bytes.Equal(hgBytes(got), want) || !bytes.Equal(hgBytes(sres.Hypergraph), want) ||
			!projectsTo(res.Hypergraph, g)
		ops = append(ops, outcome{Mismatch: mismatch})
	}
	n := float64(len(ops))
	rep.settle(ops)
	rep.note("traced: %d ops; replayed output byte-identical to Reconstruct and to the serial pipeline on %d of them", len(ops), len(ops)-rep.failed)
	addCoreLayers(rep, tr, n)
	rep.add("core.parallel_speedup", "x", sum(serialMS)/sum(plainMS))
	rep.add("core.train_s", "s", st.trainS)
	rep.add("marioh.ms_per_op", "ms", sum(plainMS)/n)
	addFlatLayers(rep, "incremental", "durability", "server")
	rep.add("bench.sched_lag_tail_ms", "ms", tailOf(gaps).Value)
	rep.add("bench.trace_overhead_ratio", "ratio", sum(replayMS)/sum(plainMS)-1)
	return nil
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// addCoreLayers reports the per-op layer metrics the external round loop
// recorded over n ops.
func addCoreLayers(rep *report, tr *tracer, n float64) {
	enum, feat, mlpMS := tr.total("graph.enum"), tr.total("features"), tr.total("mlp")
	cliques := tr.counts["graph.cliques"]
	rep.add("features.ms_per_op", "ms", feat/n)
	rep.add("features.calls_per_op", "count", tr.counts["features.calls"]/n)
	rep.add("mlp.ms_per_op", "ms", mlpMS/n)
	rep.add("mlp.forwards_per_op", "count", tr.counts["mlp.forwards"]/n)
	rep.add("graph.enum_ms_per_op", "ms", enum/n)
	rep.add("graph.cliques_per_op", "count", cliques/n)
	rep.add("core.filter_ms_per_op", "ms", tr.total("core.filter")/n)
	rep.add("core.filter_size2_per_op", "count", tr.counts["core.filter_size2"]/n)
	rep.add("core.repeat_score_ratio", "ratio", ratioOr0(tr.counts["core.repeat_scores"], cliques))
	rep.add("core.search_self_ms_per_op", "ms", (tr.total("core.search")-enum-feat-mlpMS)/n)
	rep.add("core.rounds_per_op", "count", tr.counts["core.rounds"]/n)
	rep.add("core.accept_ratio", "ratio", ratioOr0(tr.counts["core.accepted"], cliques))
}

// addFlatLayers reports zero for the per-layer metrics of layers a
// workload does not run through.
func addFlatLayers(rep *report, layers ...string) {
	for _, l := range layers {
		for _, m := range layerMetrics[l] {
			rep.add(m.Name, m.Unit, 0)
		}
	}
}

// layerMetrics lists the per-layer metrics of the layers some workloads
// bypass.
var layerMetrics = map[string][]metric{
	"incremental": {
		{Name: "incremental.dirty_components_per_apply", Unit: "count"},
		{Name: "incremental.dirty_edge_share", Unit: "ratio"},
		{Name: "incremental.overhead_ms_per_apply", Unit: "ms"},
	},
	"durability": {
		{Name: "durability.overhead_ms_per_apply", Unit: "ms"},
		{Name: "durability.wal_bytes_per_apply", Unit: "bytes"},
		{Name: "durability.snapshot_bytes", Unit: "bytes"},
	},
	"server": {
		{Name: "server.compute_ms_per_req", Unit: "ms"},
		{Name: "server.overhead_ms_per_req", Unit: "ms"},
		{Name: "server.queue_depth_max", Unit: "count"},
		{Name: "server.inflight_max", Unit: "count"},
		{Name: "admission.rejected_ratio", Unit: "ratio"},
		{Name: "admission.dedup_hits", Unit: "count"},
	},
}

func ratioOr0(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
