package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"marioh"
	"marioh/internal/core"
	"marioh/internal/graph"
)

// windowSLO is session-window-dblp's fixed latency limit for slo_ok_ratio.
const windowSLO = 400 * time.Millisecond

type windowSetup struct {
	in     *windowInputs
	r      *marioh.Reconstructor
	dir    string
	sess   *marioh.Session // durable, fsync on, default snapshot cadence
	mem    *marioh.Session // in-memory twin; traced runs only
	feed   *feed
	warmup [][]graph.DeltaOp
	trainS float64
	// baseRounds is the most rounds any component of the base graph took.
	baseRounds int
}

func (st *windowSetup) close() {
	if st.sess != nil {
		_ = st.sess.Close() // the directory is removed next
	}
	if st.dir != "" {
		_ = os.RemoveAll(st.dir) // a leftover temp dir only wastes space
	}
}

// openWindow is the session's set-up: generate the inputs, train the
// model, open the durable session, reconstruct the base graph and fill
// the window with w batches.
func openWindow(ctx context.Context, cfg runConfig) (*windowSetup, error) {
	in, err := genWindow(cfg.seed)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	r, err := trainModel(ctx, in.source)
	if err != nil {
		return nil, err
	}
	st := &windowSetup{in: in, r: r, trainS: time.Since(t0).Seconds()}
	st.dir, err = os.MkdirTemp("", "perfbench-session-")
	if err != nil {
		return nil, err
	}
	st.sess, err = r.NewSession(ctx, marioh.SessionConfig{
		Graph:   in.base,
		Durable: &marioh.DurableOptions{Dir: filepath.Join(st.dir, "session")},
	})
	if err != nil {
		st.close()
		return nil, err
	}
	if cfg.trace {
		if st.mem, err = r.NewSession(ctx, marioh.SessionConfig{Graph: in.base}); err != nil {
			st.close()
			return nil, err
		}
	}
	st.feed = newFeed(in.base, in.feed, windowK, windowW)
	batches := [][]graph.DeltaOp{nil}
	for i := 0; i < windowW; i++ {
		batches = append(batches, st.feed.batch())
	}
	for i, ops := range batches {
		for _, s := range []*marioh.Session{st.sess, st.mem} {
			if s == nil {
				continue
			}
			res, err := s.Apply(ctx, marioh.Delta{Ops: ops})
			if err != nil {
				st.close()
				return nil, fmt.Errorf("warm-up apply: %w", err)
			}
			if i == 0 {
				st.baseRounds = res.Times.Rounds
			}
		}
	}
	st.warmup = batches
	return st, nil
}

// runWindow is session-window-dblp: one caller in a closed loop running
// Session.Apply on a durable session with a sliding window of source
// hyperedges.
func runWindow(ctx context.Context, cfg runConfig) (*report, error) {
	st, setupS, err := setupMedian(func() (*windowSetup, error) { return openWindow(ctx, cfg) },
		func(st *windowSetup) { st.close() })
	if err != nil {
		return nil, err
	}
	defer st.close()
	rep := &report{shape: append(st.in.shape(), fmt.Sprintf("base reconstruction: %d rounds", st.baseRounds))}
	if cfg.trace {
		err = traceWindow(ctx, cfg, st, rep)
	} else {
		err = measureWindow(ctx, cfg, st, rep, setupS)
	}
	return rep, err
}

func measureWindow(ctx context.Context, cfg runConfig, st *windowSetup, rep *report, setupS float64) error {
	var ops []outcome
	var batches [][]graph.DeltaOp
	var outs [][32]byte
	var gaps []float64
	var last *marioh.Result
	a0 := allocMB()
	rss := sampleRSS()
	start := time.Now()
	prevEnd := start
	for time.Since(start) < cfg.window {
		b := st.feed.batch()
		t0 := time.Now()
		gaps = append(gaps, ms(t0.Sub(prevEnd)))
		res, err := st.sess.Apply(ctx, marioh.Delta{Ops: b})
		prevEnd = time.Now()
		ops = append(ops, outcome{Latency: prevEnd.Sub(t0), Err: err})
		batches = append(batches, b)
		var d [32]byte
		if err == nil {
			d = digest(hgBytes(res.Hypergraph))
			last = res
		}
		outs = append(outs, d)
	}
	elapsed := time.Since(start)
	allocPerOp := (allocMB() - a0) / float64(len(ops))
	peakRSS := rss.peak()

	// Oracle, outside the timed window: replay the same batches on a
	// plain graph and reconstruct every state from scratch with the
	// serial pipeline.
	mismatch, err := windowOracle(ctx, cfg, st, batches, outs)
	if err != nil {
		return err
	}
	for i := range ops {
		ops[i].Mismatch = mismatch[i]
	}
	if g := st.sess.Graph(); !slices.Equal(g.Edges(), st.feed.shadow.Edges()) {
		rep.note("oracle: the session graph differs from the replayed delta stream")
		ops[len(ops)-1].Mismatch = true
	}
	truth := st.feed.truth(st.in.truth)
	stats := st.sess.Stats()
	rep.note("session: %d applies, %d WAL records (%d bytes), %d snapshots", stats.Applies, stats.WALRecords, stats.WALBytes, stats.Snapshots)
	closeOut(rep, ops, elapsed, windowSLO, gaps, "closed loop, 1 caller")
	rep.add("setup_s", "s", setupS)
	jac, mjac := 0.0, 0.0
	if last != nil {
		jac, mjac = marioh.Jaccard(truth, last.Hypergraph), marioh.MultiJaccard(truth, last.Hypergraph)
	}
	rep.add("jaccard", "ratio", jac)
	rep.add("multi_jaccard", "ratio", mjac)
	rep.add("alloc_mb_per_op", "MB", allocPerOp)
	rep.add("peak_rss_mb", "MB", peakRSS)
	return nil
}

// windowOracle replays the warm-up and measured batches on a fresh copy
// of the base graph and compares every measured op's output digest with
// the serial pipeline's reconstruction of the same state, which must also
// project back to that state. States are cloned one at a time and handed
// to nproc reference workers, so at most nproc+1 copies are alive.
func windowOracle(ctx context.Context, cfg runConfig, st *windowSetup, batches [][]graph.DeltaOp, outs [][32]byte) ([]bool, error) {
	serial, err := serialReconstructor(st.r.Model())
	if err != nil {
		return nil, err
	}
	type state struct {
		i int
		g *graph.Graph
	}
	states := make(chan state)
	go func() {
		defer close(states)
		t := graph.NewTracker(st.in.base.Clone())
		for _, b := range st.warmup {
			applyOps(t, b)
		}
		for i, b := range batches {
			applyOps(t, b)
			states <- state{i, t.Graph().Clone()}
		}
	}()
	mismatch := make([]bool, len(batches))
	errs := make([]error, cfg.nproc)
	var wg sync.WaitGroup
	for w := 0; w < cfg.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range states {
				if errs[w] != nil {
					continue // drain, so the producer can finish
				}
				res, err := serial.Reconstruct(ctx, s.g)
				if err != nil {
					errs[w] = err
					continue
				}
				mismatch[s.i] = digest(hgBytes(res.Hypergraph)) != outs[s.i] || !projectsTo(res.Hypergraph, s.g)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("serial reference: %w", err)
		}
	}
	return mismatch, nil
}

// traceWindow is session-window-dblp's traced run. Each op applies the
// batch to the durable session and to its in-memory twin, then rebuilds
// the dirty components' induced subgraph with core.ReconstructPiece (at
// the default and at serial Parallelism) and with the external round
// loop. Durable and in-memory outputs must match, and so must the three
// rebuilds of the piece.
func traceWindow(ctx context.Context, cfg runConfig, st *windowSetup, rep *report) error {
	tr := newTracer()
	rep.tr = tr
	m := st.r.Model()
	opts := core.Options{Seed: modelSeed}
	serialOpts := core.Options{Seed: modelSeed, Parallelism: 1}
	shadow := graph.NewTracker(st.in.base.Clone())
	for _, b := range st.warmup {
		applyOps(shadow, b)
	}
	w0 := st.sess.Stats()
	var durMS, memMS, pieceMS, pieceSerialMS, extraMS, dirtyComps, edgeShare, gaps []float64
	var ops []outcome
	start := time.Now()
	prevEnd := start
	for i := 0; i == 0 || time.Since(start) < cfg.window; i++ {
		b := st.feed.batch()
		gaps = append(gaps, ms(time.Since(prevEnd)))
		s := tr.start(i, 0, "marioh.apply")
		dres, err := st.sess.Apply(ctx, marioh.Delta{Ops: b})
		durMS = append(durMS, tr.stop(s))
		if err != nil {
			return err
		}
		x0 := time.Now()

		s = tr.start(i, 0, "incremental.apply")
		mres, err := st.mem.Apply(ctx, marioh.Delta{Ops: b})
		memMS = append(memMS, tr.stop(s))
		if err != nil {
			return err
		}
		dirtyComps = append(dirtyComps, float64(dres.DirtyComponents))

		applyOps(shadow, b)
		g := shadow.Graph()
		nodes := dirtyNodes(shadow, b)
		sub, back := g.Subgraph(nodes)
		edgeShare = append(edgeShare, float64(sub.NumEdges())/float64(max(g.NumEdges(), 1)))

		s = tr.start(i, 0, "core.piece")
		pres, err := core.ReconstructPiece(ctx, sub, m, opts, back)
		pieceMS = append(pieceMS, tr.stop(s))
		if err != nil {
			return err
		}
		t1 := time.Now()
		sres, err := core.ReconstructPiece(ctx, sub, m, serialOpts, back)
		if err != nil {
			return err
		}
		pieceSerialMS = append(pieceSerialMS, ms(time.Since(t1)))

		s = tr.start(i, 0, "replay")
		got, err := replay(ctx, sub, m, opts, back, tr, i, s)
		tr.stop(s)
		if err != nil {
			return err
		}
		extraMS = append(extraMS, ms(time.Since(x0)))
		prevEnd = time.Now()
		piece := hgBytes(pres.Hypergraph)
		mismatch := !bytes.Equal(hgBytes(dres.Hypergraph), hgBytes(mres.Hypergraph)) ||
			!bytes.Equal(hgBytes(got), piece) || !bytes.Equal(hgBytes(sres.Hypergraph), piece) ||
			!projectsTo(dres.Hypergraph, g)
		ops = append(ops, outcome{Mismatch: mismatch})
	}
	w1 := st.sess.Stats()
	n := float64(len(ops))
	rep.settle(ops)
	rep.note("traced: %d applies; durable == in-memory and replay == ReconstructPiece == its serial run on %d of them", len(ops), len(ops)-rep.failed)
	addCoreLayers(rep, tr, n)
	rep.add("core.parallel_speedup", "x", sum(pieceSerialMS)/sum(pieceMS))
	rep.add("core.train_s", "s", st.trainS)
	rep.add("marioh.ms_per_op", "ms", sum(durMS)/n)
	rep.add("incremental.dirty_components_per_apply", "count", mean(dirtyComps))
	rep.add("incremental.dirty_edge_share", "ratio", mean(edgeShare))
	rep.add("incremental.overhead_ms_per_apply", "ms", (sum(memMS)-sum(pieceMS))/n)
	rep.add("durability.overhead_ms_per_apply", "ms", (sum(durMS)-sum(memMS))/n)
	rep.add("durability.wal_bytes_per_apply", "bytes", float64(w1.WALBytes-w0.WALBytes)/n)
	rep.add("durability.snapshot_bytes", "bytes", snapshotBytes(st.dir))
	addFlatLayers(rep, "server")
	rep.add("bench.sched_lag_tail_ms", "ms", tailOf(gaps).Value)
	rep.add("bench.trace_overhead_ratio", "ratio", sum(extraMS)/sum(durMS))
	return nil
}

// dirtyNodes returns, sorted, the nodes of every edge-bearing component of
// the tracked graph that the batch touched: the components an apply has
// to rebuild.
func dirtyNodes(t *graph.Tracker, batch []graph.DeltaOp) []int {
	seen := map[int]bool{}
	var nodes []int
	g := t.Graph()
	for _, op := range batch {
		for _, u := range []int{op.U, op.V} {
			if seen[u] || g.Degree(u) == 0 {
				continue
			}
			for _, v := range t.Component(u) {
				seen[v] = true
				nodes = append(nodes, v)
			}
		}
	}
	slices.Sort(nodes)
	return nodes
}

// snapshotBytes is the size of the session's newest engine snapshot.
func snapshotBytes(dir string) float64 {
	var size int64
	_ = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && d.Name() == "engine.snap" {
			if fi, err := d.Info(); err == nil {
				size = fi.Size()
			}
		}
		return nil
	})
	return float64(size)
}
