package marioh_test

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"marioh"
)

// TestNewSessionInMemory: the unified entrypoint's in-memory form must
// reproduce a from-scratch Reconstruct of the mutated graph, byte for
// byte, after every apply.
func TestNewSessionInMemory(t *testing.T) {
	r, g := trainedReconstructor(t)
	ctx := context.Background()

	sess, err := r.NewSession(ctx, marioh.SessionConfig{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	shadow := g.Clone()
	d := marioh.Delta{Ops: []marioh.DeltaOp{{Kind: marioh.DeltaAdd, U: 0, V: 1, W: 2}}}
	for _, batch := range []marioh.Delta{{}, d} {
		for _, op := range batch.Ops {
			shadow.AddWeight(op.U, op.V, op.W)
		}
		got, err := sess.Apply(ctx, batch)
		if err != nil {
			t.Fatal(err)
		}
		want, err := r.Reconstruct(ctx, shadow)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(renderResult(t, got), renderResult(t, want)) {
			t.Fatal("NewSession output differs from a from-scratch Reconstruct")
		}
	}
}

// TestNewSessionDurableResume: durable create + resume through the
// unified entrypoint round-trips session state.
func TestNewSessionDurableResume(t *testing.T) {
	r, g := trainedReconstructor(t)
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "sess")
	dopts := marioh.DurableOptions{Dir: dir, NoFsync: true}

	sess, err := r.NewSession(ctx, marioh.SessionConfig{Graph: g, Durable: &dopts})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Apply(ctx, marioh.Delta{Ops: []marioh.DeltaOp{{Kind: marioh.DeltaAdd, U: 0, V: 1, W: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	want := renderResult(t, res)
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	if !marioh.HasDurableSession(dir) {
		t.Fatal("durable directory not recognized")
	}
	resumed, err := r.NewSession(ctx, marioh.SessionConfig{Durable: &dopts, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	st := resumed.Stats()
	if !st.Durable || st.Applies != 1 {
		t.Fatalf("resumed stats = %+v, want durable with 1 apply", st)
	}
	res2, err := resumed.Apply(ctx, marioh.Delta{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, renderResult(t, res2)) {
		t.Fatal("resumed session bytes differ from pre-close result")
	}
}

// TestNewSessionConfigValidation: the dispatch rejects contradictory or
// incomplete configs and honors context state.
func TestNewSessionConfigValidation(t *testing.T) {
	r, g := trainedReconstructor(t)
	ctx := context.Background()

	if _, err := r.NewSession(ctx, marioh.SessionConfig{Resume: true}); err == nil {
		t.Fatal("Resume without Durable accepted")
	}
	dopts := marioh.DurableOptions{Dir: t.TempDir()}
	if _, err := r.NewSession(ctx, marioh.SessionConfig{Graph: g, Durable: &dopts, Resume: true}); err == nil {
		t.Fatal("Resume with Graph accepted")
	}
	if _, err := r.NewSession(ctx, marioh.SessionConfig{}); err == nil {
		t.Fatal("nil graph accepted for in-memory session")
	}
	//lint:ignore SA1012 nil-context rejection is the behavior under test
	if _, err := r.NewSession(nil, marioh.SessionConfig{Graph: g}); err == nil {
		t.Fatal("nil context accepted")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := r.NewSession(cancelled, marioh.SessionConfig{Graph: g}); err != context.Canceled {
		t.Fatalf("cancelled ctx: err = %v, want context.Canceled", err)
	}
}
