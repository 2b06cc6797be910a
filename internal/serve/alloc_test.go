package serve

import (
	"context"
	"reflect"
	"testing"
	"time"

	"thor/internal/obs"
	"thor/internal/schema"
	"thor/internal/tablestore"
)

// TestServeZeroAllocWarmBatch gates the serving fill path's steady-state
// allocation behavior: once the pipeline, caches and dispatcher scratch are
// warm, coalescing and running a repeated micro-batch must stay within a
// small fixed allocation budget — independent of document length or phrase
// count, which all resolve through reused scratch. The dispatcher goroutine
// is parked via Shutdown first so the test goroutine can drive runBatch
// directly. AllocsPerRun counts the allocations of every goroutine, so the
// count includes the run's single pipeline worker (Workers: 1) and its start.
func TestServeZeroAllocWarmBatch(t *testing.T) {
	table, space := testWorld()
	// A live journal rides along: its hooks sit on drain/swap edges, so its
	// presence must not cost the warm batch path anything.
	journal := obs.NewJournal(obs.JournalConfig{Node: "test"})
	s, err := NewServer(Options{Table: table, Space: space, Tau: 0.6, Workers: 1, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	docs := segmentDocs(worldDocs)
	p := acquirePending()
	p.ctx = context.Background()
	p.docs = append(p.docs[:0], docs...)
	p.enq = time.Now()
	// Pin the snapshot once, as the handler does at admission; the batch
	// path itself must not add per-run work.
	p.snap = s.store.Acquire()
	defer p.snap.Release()
	batch := []*pending{p}

	run := func() batchOutcome {
		s.runBatch(batch)
		return <-p.resp
	}
	warm := run()
	if warm.err != nil {
		t.Fatal(warm.err)
	}
	if len(warm.docs) != len(docs) {
		t.Fatalf("warm batch completed %d/%d documents", len(warm.docs), len(docs))
	}
	run() // second warm-up: let every lazy scratch reach steady-state size

	allocs := testing.AllocsPerRun(20, func() {
		out := run()
		if out.err != nil || len(out.docs) != len(docs) {
			t.Fatalf("warm batch changed: err=%v docs=%d", out.err, len(out.docs))
		}
	})
	t.Logf("warm batch: %.1f allocs/op for %d documents", allocs, len(docs))
	// Budget: the per-request result payload (DocResult slices, entities,
	// stage stats, the Result itself) — bounded per batch, with nothing
	// proportional to sentences, phrases or candidate pairs. Measured ~60;
	// the margin absorbs runtime jitter, not regressions.
	if budget := 120.0; allocs > budget {
		t.Errorf("warm batch allocates %.1f allocs/op, budget %.0f", allocs, budget)
	}
}

// TestServeZeroAllocAfterUnrelatedMutation extends the warm-batch gate across
// a live-table swap: after mutating a concept the warm documents never match
// against, the new version's pipeline must answer the same batch within the
// same allocation budget. The per-concept cache keying (PR 9) is what makes
// this hold — only the mutated concept's fine-tuning is invalidated, so the
// swap re-derives one concept and inherits every other warm cache.
func TestServeZeroAllocAfterUnrelatedMutation(t *testing.T) {
	table, space := testWorld()
	journal := obs.NewJournal(obs.JournalConfig{Node: "test"})
	s, err := NewServer(Options{Table: table, Space: space, Tau: 0.6, Workers: 1, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	docs := segmentDocs(worldDocs)
	p := acquirePending()
	p.ctx = context.Background()
	p.docs = append(p.docs[:0], docs...)
	p.enq = time.Now()
	p.snap = s.store.Acquire()
	batch := []*pending{p}
	run := func() batchOutcome {
		s.runBatch(batch)
		return <-p.resp
	}
	warm := run()
	if warm.err != nil {
		t.Fatal(warm.err)
	}
	run()

	// The mutation: a synthetic Anatomy value no document mentions. Exactly
	// one concept invalidates; the rest carry their fine-tuned state across
	// the swap (thor.table.concepts_retained counts them).
	res, err := s.store.Mutate(0, []tablestore.RowUpdate{
		{Subject: "Malaria", Cells: map[schema.Concept][]string{"Anatomy": {"zz synthetic organ"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []schema.Concept{"Anatomy"}; !reflect.DeepEqual(res.Invalidated, want) {
		t.Fatalf("invalidated %v, want %v", res.Invalidated, want)
	}
	if res.Retained != 2 {
		t.Fatalf("retained %d concepts across the swap, want 2", res.Retained)
	}

	// Re-admit under the new version, as a fresh request would.
	p.snap.Release()
	p.snap = s.store.Acquire()
	defer p.snap.Release()
	if p.snap.Version != res.Version {
		t.Fatalf("acquired version %d after swap to %d", p.snap.Version, res.Version)
	}
	// One settling run on the swapped pipeline, then the same gate as the
	// pre-mutation test: a swap must not cost the steady state anything.
	run()
	allocs := testing.AllocsPerRun(20, func() {
		out := run()
		if out.err != nil || len(out.docs) != len(docs) {
			t.Fatalf("post-swap batch changed: err=%v docs=%d", out.err, len(out.docs))
		}
	})
	t.Logf("post-swap warm batch: %.1f allocs/op for %d documents", allocs, len(docs))
	if budget := 120.0; allocs > budget {
		t.Errorf("post-swap warm batch allocates %.1f allocs/op, budget %.0f", allocs, budget)
	}
}
