package core

import (
	"context"
	"sync"

	"marioh/internal/graph"
	"marioh/internal/hypergraph"
	"marioh/internal/par"
	"marioh/internal/shard"
)

// ShardOptions configure ReconstructSharded.
type ShardOptions struct {
	// Shards is the shard count handed to the partitioner; 0 resolves to
	// GOMAXPROCS. The output is byte-identical for every shard count (see
	// ReconstructSharded), so this is purely a throughput knob.
	Shards int
	// TargetEdges is the partitioner's shard size target; 0 derives it
	// from the edge count and shard count.
	TargetEdges int
	// Executor, when non-nil, runs the per-shard tasks instead of the
	// built-in fan-out, which runs at most Workers(Options.Parallelism)
	// shards at once — the hook external schedulers (e.g. the mariohd job
	// queue) use to fan shards onto their own workers. It must execute
	// every task exactly once, on any goroutines it likes, and return
	// only when all of them finished.
	Executor func(tasks []func())
}

// ReconstructPiece runs the cached round engine on one piece of a larger
// graph: g is the piece's subgraph and origID maps its node ids back to
// the original graph (nil when g is the original). The piece carries the
// shard executor's exact per-component round cache, so rounds in which a
// component accepted nothing skip re-enumeration and re-scoring. This is
// the entry point the incremental session engine shares with the shard
// executor: both reconstruct pieces whose components are keyed by original
// node ids, so their outputs merge bit-for-bit into the serial pipeline's.
func ReconstructPiece(ctx context.Context, g *graph.Graph, m *Model, opts Options, origID []int) (*Result, error) {
	return reconstructGraph(ctx, g, m, opts, origID, &roundCache{})
}

// ReconstructSharded runs MARIOH on g by partitioning it into shards,
// reconstructing every shard concurrently, and merging the per-shard
// hypergraphs. The output is byte-identical to ReconstructContext on the
// same inputs, for any shard count: hyperedges never span connected
// components, the partitioner splits oversized components only along
// bridges (which filtering consumes before anything is scored), and the
// round engine keys all per-round randomness and fallbacks by component —
// so each shard reproduces exactly the slice of the serial run its
// components would have produced. The one exception is Options.
// MaxCliqueLimit, a global per-round budget that is applied per shard
// instead; runs relying on it may diverge from the serial pipeline.
//
// Sharded runs are also faster than the serial pipeline on one core:
// each shard caches its clique enumeration and scores across rounds in
// which nothing was accepted (θ still decaying), where the serial
// reference re-enumerates and re-scores every round.
//
// Progress events carry the shard index and shard-local rounds and edge
// counts. Result.Times aggregates the per-shard breakdowns (durations
// summed, Rounds the maximum); Result.Shards records the shard count.
// On error or cancellation the merged partial reconstruction is returned
// with the first error, matching ReconstructContext's contract.
func ReconstructSharded(ctx context.Context, g *graph.Graph, m *Model, opts Options, so ShardOptions) (*Result, error) {
	if so.Shards < 1 {
		so.Shards = Workers(0)
	}
	plan := shard.Partition(g, shard.Options{
		Shards:      so.Shards,
		TargetEdges: so.TargetEdges,
		// Bridge cuts are only output-exact because filtering consumes
		// every bridge before scoring; without filtering (MARIOH-F) the
		// partitioner must stay at component granularity.
		DisableSplit: opts.DisableFiltering,
	})

	if len(plan.Pieces) <= 1 {
		res, err := reconstructGraph(ctx, g, m, opts, nil, &roundCache{})
		res.Shards = 1
		return res, err
	}

	// Serialize progress delivery across shards and stamp the shard index,
	// so one Progress callback observes the whole run without locks.
	var progressMu sync.Mutex
	progressFor := func(idx int) ProgressFunc {
		fn := opts.Progress
		if fn == nil {
			return nil
		}
		return func(p Progress) {
			p.Shard = idx
			progressMu.Lock()
			defer progressMu.Unlock()
			fn(p)
		}
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]*Result, len(plan.Pieces))
	errs := make([]error, len(plan.Pieces))
	tasks := make([]func(), len(plan.Pieces))
	for i := range plan.Pieces {
		i := i
		piece := plan.Pieces[i]
		tasks[i] = func() {
			popts := opts
			popts.Progress = progressFor(i)
			results[i], errs[i] = ReconstructPiece(runCtx, piece.Graph, m, popts, piece.Nodes)
			if errs[i] != nil {
				cancel()
			}
		}
	}

	if so.Executor != nil {
		so.Executor(tasks)
	} else {
		par.Do(len(tasks), Workers(opts.Parallelism), func(_, i int) { tasks[i]() })
	}

	merged := &Result{Hypergraph: hypergraph.New(g.NumNodes()), Shards: len(plan.Pieces)}
	var firstErr error
	buf := make([]int, 0, 16)
	for i, res := range results {
		if errs[i] != nil && firstErr == nil {
			firstErr = errs[i]
		}
		if res == nil {
			continue
		}
		nodes := plan.Pieces[i].Nodes
		res.Hypergraph.Each(func(local []int, mult int) {
			buf = buf[:0]
			for _, u := range local {
				buf = append(buf, nodes[u])
			}
			merged.Hypergraph.AddMult(buf, mult)
		})
		merged.FilteredSize2 += res.FilteredSize2
		merged.Times.Filtering += res.Times.Filtering
		merged.Times.Bidirectional += res.Times.Bidirectional
		if res.Times.Rounds > merged.Times.Rounds {
			merged.Times.Rounds = res.Times.Rounds
		}
	}
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return merged, firstErr
}
