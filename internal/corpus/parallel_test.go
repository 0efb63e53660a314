package corpus

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"marioh/internal/core"
)

// TestParallelRoundMatchesSerialOverCorpus is the corpus-wide determinism
// property test for the parallel round engine: every family, reconstructed
// at Parallelism ∈ {1, 2, 8}, must be byte-identical to the serial golden.
// The Parallelism > 1 runs also force the fan-out threshold to 1 so
// parallel enumeration, parallel scoring and the per-component fan-out
// engage on every round of every family, however small — the documented
// default would leave the small families serial. Every run must also
// project back to its input graph edge for edge and weight for weight,
// an oracle that does not depend on the engine agreeing with itself.
// Named to match the -race matrix ('Parallel'), which is where
// scheduling-dependent divergence would surface.
func TestParallelRoundMatchesSerialOverCorpus(t *testing.T) {
	// Force real goroutine interleaving even on single-core runners.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	m := testModel()
	for _, f := range Families {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			input := f.Gen(1)
			checkProjection := func(par int, res *core.Result) {
				t.Helper()
				checkProjects(t, fmt.Sprintf("Parallelism=%d", par), res.Hypergraph, input)
			}

			serial, err := core.ReconstructContext(context.Background(), f.Gen(1), m,
				core.Options{Seed: 1, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			checkProjection(1, serial)
			want := renderResult(t, serial)

			// The serial run must itself sit on the recorded golden pin —
			// otherwise this test could pass vacuously on drifted bytes.
			golden, err := os.ReadFile(filepath.Join("testdata", "golden", f.Name+".hg"))
			if err != nil {
				t.Fatalf("missing golden output: %v", err)
			}
			if !bytes.Equal(want, golden) {
				t.Fatalf("serial Parallelism=1 output moved off the recorded golden")
			}

			for _, par := range []int{2, 8} {
				res, err := core.ReconstructContext(context.Background(), f.Gen(1), m, core.Options{
					Seed:                   1,
					Parallelism:            par,
					ScoreParallelThreshold: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				checkProjection(par, res)
				if got := renderResult(t, res); !bytes.Equal(got, want) {
					t.Errorf("Parallelism=%d diverged from serial: got %d bytes, want %d",
						par, len(got), len(want))
				}
			}
		})
	}
}
