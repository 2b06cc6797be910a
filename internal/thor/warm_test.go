package thor

import (
	"context"
	"testing"

	"thor/internal/phrase"
	"thor/internal/segment"
)

// TestServeZeroAllocWarmExtract is the pipeline half of the serving
// allocation gate: once caches and memos are warm, extracting a repeated
// document must cost only a handful of allocations (the per-document outcome
// and its accepted entities), and the matcher's scratch-backed MatchBuf none
// at all. Regressions here surface as serving-path allocation growth long
// before they show in p99s.
func TestServeZeroAllocWarmExtract(t *testing.T) {
	table, space := fig1Table(), fig1Space()
	parse := NewParseCache()
	p, err := New(table, space, Config{Tau: 0.6, ParseCache: parse, SkipFill: true})
	if err != nil {
		t.Fatal(err)
	}
	doc := fig1Docs()[0]
	mctx := p.match.AcquireContext()
	defer p.match.ReleaseContext(mctx)
	dr := &docRun{ctx: context.Background(), doc: doc.Name, stage: StageSegment}
	warm, err := p.extractDoc(dr, doc, mctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.entities) == 0 {
		t.Fatal("warm-up extracted no entities — the gate would measure an empty path")
	}
	entityAllocs := len(warm.entities) // appends into out.entities grow from nil

	allocs := testing.AllocsPerRun(50, func() {
		out, err := p.extractDoc(dr, doc, mctx)
		if err != nil || len(out.entities) != len(warm.entities) {
			t.Fatalf("warm extract changed: err=%v entities=%d", err, len(out.entities))
		}
	})
	// Budget: the docOutcome itself, one slice growth chain for the accepted
	// entities, and nothing else — no per-sentence, per-phrase or per-match
	// allocations survive on the warm path.
	budget := float64(2 + 2*entityAllocs)
	if allocs > budget {
		t.Errorf("warm extractDoc allocates %.1f allocs/op, budget %.0f", allocs, budget)
	}

	// The matcher hot path proper: matching a warm phrase that produces no
	// candidates must be allocation-free.
	miss := phrase.Phrase{Words: []string{"slow-growing", "development"}}
	mctx.MatchBuf(miss)
	if got := testing.AllocsPerRun(100, func() { mctx.MatchBuf(miss) }); got != 0 {
		t.Errorf("warm rejecting MatchBuf allocates %.1f allocs/op, want 0", got)
	}
}

// TestDocCacheHitSkipsAnalysis pins the doc-level cache tier: a repeated
// document resolves without any per-sentence analysis stage calls, and its
// outcome is identical to the cold extraction.
func TestDocCacheHitSkipsAnalysis(t *testing.T) {
	parse := NewParseCache()
	p, err := New(fig1Table(), fig1Space(), Config{Tau: 0.6, ParseCache: parse})
	if err != nil {
		t.Fatal(err)
	}
	docs := fig1Docs()
	cold, err := p.Run(docs)
	if err != nil {
		t.Fatal(err)
	}
	if parse.DocLen() == 0 {
		t.Fatal("doc-level cache never populated")
	}
	warmRun, err := p.Run(docs)
	if err != nil {
		t.Fatal(err)
	}
	a, b := cold.AllEntities(), warmRun.AllEntities()
	if len(a) != len(b) {
		t.Fatalf("warm run differs: %d vs %d entities", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entity %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	for _, st := range warmRun.Stats.Stages {
		switch st.Stage {
		case StagePOSTag, StageDepParse, StagePhraseExtract:
			if st.Calls != 0 {
				t.Errorf("warm run still ran %s %d times", st.Stage, st.Calls)
			}
		case StageSegment:
			if st.Calls != 1 {
				t.Errorf("warm run booked %d segment calls, want 1 (the doc lookup)", st.Calls)
			}
		}
	}
	// Different default subjects key different entries — the cache must not
	// conflate them.
	docOther := docs[0]
	docOther.DefaultSubject = "Tuberculosis"
	if _, err := p.Run([]segment.Document{docOther}); err != nil {
		t.Fatal(err)
	}
	if parse.DocLen() < 2 {
		t.Errorf("DocLen = %d, want entries per (subject, text) pair", parse.DocLen())
	}
}
