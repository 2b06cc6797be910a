package thor

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"thor/internal/chaos"
	"thor/internal/obs"
	"thor/internal/segment"
)

// failDocsHook returns a FaultHook that fails the named documents at the
// given stage with err, every attempt.
func failDocsHook(stage Stage, err error, names ...string) func(string, Stage) error {
	bad := map[string]bool{}
	for _, n := range names {
		bad[n] = true
	}
	return func(doc string, s Stage) error {
		if bad[doc] && s == stage {
			return err
		}
		return nil
	}
}

// TestQuarantineIsolatesHealthyDocs is the core fault-isolation invariant:
// quarantining some documents must not perturb the others — the faulted
// run's result is bit-identical to a clean run over the surviving subset.
func TestQuarantineIsolatesHealthyDocs(t *testing.T) {
	table, space := fig1Table(), fig1Space()
	docs := cancelDocs(8, 3)
	for _, workers := range []int{1, 4} {
		res, err := Run(table, space, docs, Config{
			Tau:                0.6,
			Workers:            workers,
			MaxFailureFraction: 1,
			FaultHook:          failDocsHook(StageMatch, errors.New("boom"), "doc-2", "doc-5"),
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		assertWellFormedPartial(t, res, len(docs))
		if len(res.Stats.Quarantined) != 2 {
			t.Fatalf("workers=%d: quarantined %+v, want doc-2 and doc-5", workers, res.Stats.Quarantined)
		}
		for _, f := range res.Stats.Quarantined {
			if f.Doc != "doc-2" && f.Doc != "doc-5" {
				t.Errorf("workers=%d: wrong doc quarantined: %+v", workers, f)
			}
			if f.Stage != StageMatch || f.Err != "boom" {
				t.Errorf("workers=%d: failure attribution wrong: %+v", workers, f)
			}
		}
		var subset []segment.Document
		for _, i := range res.Stats.CompletedDocs {
			subset = append(subset, docs[i])
		}
		clean, err := Run(table, space, subset, Config{Tau: 0.6})
		if err != nil {
			t.Fatal(err)
		}
		a, b := res.AllEntities(), clean.AllEntities()
		if len(a) != len(b) {
			t.Fatalf("workers=%d: %d entities with faults, %d clean", workers, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("workers=%d: entity %d differs: %+v vs %+v", workers, i, a[i], b[i])
			}
		}
		if csvOf(t, res.Table) != csvOf(t, clean.Table) {
			t.Errorf("workers=%d: tables differ between faulted and clean-subset runs", workers)
		}
		if res.Stats.Sentences != clean.Stats.Sentences || res.Stats.Filled != clean.Stats.Filled {
			t.Errorf("workers=%d: counters differ: %+v vs %+v", workers, res.Stats, clean.Stats)
		}
	}
}

func TestMaxFailureFractionAborts(t *testing.T) {
	docs := cancelDocs(4, 2)
	res, err := Run(fig1Table(), fig1Space(), docs, Config{
		Tau:                0.6,
		MaxFailureFraction: 0.25, // allowance = 1 of 4
		FaultHook:          failDocsHook(StageSegment, errors.New("dead"), "doc-0", "doc-1", "doc-2", "doc-3"),
	})
	if err == nil {
		t.Fatal("run above the failure threshold did not abort")
	}
	var aborted *RunAbortedError
	if !errors.As(err, &aborted) {
		t.Fatalf("error is %T (%v), want *RunAbortedError", err, err)
	}
	if len(aborted.Failures) < 2 || aborted.Documents != 4 {
		t.Errorf("composite error incomplete: %+v", aborted)
	}
	if !strings.Contains(err.Error(), "dead") || !strings.Contains(err.Error(), "aborted") {
		t.Errorf("composite error message uninformative: %v", err)
	}
	// Sequential run: doc-0 fails (1 <= allowance), doc-1 trips the
	// threshold, doc-2 and doc-3 are never attempted.
	assertWellFormedPartial(t, res, len(docs))
	if len(res.Stats.Quarantined) != 2 || res.Stats.Skipped != 2 {
		t.Errorf("quarantined=%d skipped=%d, want 2/2: %+v", len(res.Stats.Quarantined), res.Stats.Skipped, res.Stats)
	}
}

// flakyHook fails a document's segment stage with a transient error for the
// first failures attempts, then succeeds.
type flakyHook struct {
	mu       sync.Mutex
	failures int
	calls    int
}

func (h *flakyHook) hook(doc string, s Stage) error {
	if s != StageSegment || doc != "doc-1" {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.calls++
	if h.calls <= h.failures {
		return &chaos.TransientError{Err: fmt.Errorf("flaky attempt %d", h.calls)}
	}
	return nil
}

func TestTransientFailureRetriedToSuccess(t *testing.T) {
	h := &flakyHook{failures: 2}
	docs := cancelDocs(3, 2)
	res, err := Run(fig1Table(), fig1Space(), docs, Config{
		Tau:       0.6,
		FaultHook: h.hook,
		Retry:     chaos.Backoff{Attempts: 3, Base: time.Microsecond, Cap: time.Millisecond},
	})
	if err != nil {
		t.Fatalf("transient failures within the retry budget must not surface: %v", err)
	}
	if len(res.Stats.Quarantined) != 0 || len(res.Stats.CompletedDocs) != len(docs) {
		t.Fatalf("doc not recovered: %+v", res.Stats)
	}
	if res.Stats.Retried != 2 {
		t.Errorf("Retried = %d, want 2", res.Stats.Retried)
	}
}

func TestTransientFailureBeyondBudgetQuarantines(t *testing.T) {
	h := &flakyHook{failures: 10}
	docs := cancelDocs(3, 2)
	res, err := Run(fig1Table(), fig1Space(), docs, Config{
		Tau:                0.6,
		MaxFailureFraction: 1,
		FaultHook:          h.hook,
		Retry:              chaos.Backoff{Attempts: 2, Base: time.Microsecond, Cap: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Quarantined) != 1 || res.Stats.Quarantined[0].Doc != "doc-1" {
		t.Fatalf("want doc-1 quarantined after retry budget: %+v", res.Stats)
	}
	if h.calls != 2 {
		t.Errorf("hook called %d times for doc-1/segment, want exactly the 2 budgeted attempts", h.calls)
	}
}

func TestPermanentFailureNotRetried(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	hook := func(doc string, s Stage) error {
		if doc == "doc-0" && s == StageSegment {
			mu.Lock()
			calls++
			mu.Unlock()
			return errors.New("permanent")
		}
		return nil
	}
	docs := cancelDocs(2, 2)
	res, err := Run(fig1Table(), fig1Space(), docs, Config{
		Tau:                0.6,
		MaxFailureFraction: 1,
		FaultHook:          hook,
		Retry:              chaos.Backoff{Attempts: 5, Base: time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("permanent failure retried %d times", calls)
	}
	if len(res.Stats.Quarantined) != 1 || res.Stats.Retried != 0 {
		t.Errorf("stats wrong for permanent failure: %+v", res.Stats)
	}
}

func TestInjectedPanicQuarantinedWithStack(t *testing.T) {
	hook := func(doc string, s Stage) error {
		if doc == "doc-1" && s == StageDepParse {
			panic("chaos says hi")
		}
		return nil
	}
	docs := cancelDocs(3, 2)
	res, err := Run(fig1Table(), fig1Space(), docs, Config{
		Tau: 0.6, Workers: 2, MaxFailureFraction: 1, FaultHook: hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Quarantined) != 1 {
		t.Fatalf("quarantined = %+v, want just doc-1", res.Stats.Quarantined)
	}
	f := res.Stats.Quarantined[0]
	if f.Doc != "doc-1" || f.Stage != StageDepParse {
		t.Errorf("panic attribution wrong: %+v", f)
	}
	if !strings.Contains(f.Err, "chaos says hi") || !strings.Contains(f.Stack, "goroutine") {
		t.Errorf("panic record incomplete: err=%q stack %d bytes", f.Err, len(f.Stack))
	}
}

func TestQuarantineSurfacesInMetricsAndSpans(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(256)
	h := &flakyHook{failures: 10}
	docs := cancelDocs(4, 2)
	res, err := Run(fig1Table(), fig1Space(), docs, Config{
		Tau:                0.6,
		MaxFailureFraction: 1,
		FaultHook:          h.hook,
		Retry:              chaos.Backoff{Attempts: 2, Base: time.Microsecond},
		Metrics:            reg,
		Tracer:             tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["thor.quarantined"]; got != int64(len(res.Stats.Quarantined)) {
		t.Errorf("thor.quarantined = %d, want %d", got, len(res.Stats.Quarantined))
	}
	if got := snap.Counters["thor.retries"]; got != int64(res.Stats.Retried) {
		t.Errorf("thor.retries = %d, want %d", got, res.Stats.Retried)
	}
	var quarantineSpans int
	for _, sp := range tr.Spans() {
		if sp.Name != "quarantine" {
			continue
		}
		quarantineSpans++
		attrs := map[string]string{}
		for _, a := range sp.Attrs {
			attrs[a.Key] = a.Value
		}
		if attrs["doc"] != "doc-1" || attrs["stage"] != string(StageSegment) || attrs["error"] == "" {
			t.Errorf("quarantine span attrs wrong: %+v", sp.Attrs)
		}
	}
	if quarantineSpans != len(res.Stats.Quarantined) {
		t.Errorf("quarantine spans = %d, want %d", quarantineSpans, len(res.Stats.Quarantined))
	}
}

// TestChaosInjectionEndToEnd drives the pipeline with the chaos injector on
// the fig1 workload under -race-friendly concurrency: every run completes,
// every quarantined document is reported, and healthy documents are
// bit-identical to a clean run over the surviving subset.
func TestChaosInjectionEndToEnd(t *testing.T) {
	table, space := fig1Table(), fig1Space()
	docs := cancelDocs(24, 3)
	for _, seed := range []uint64{1, 7, 42, 1337} {
		inj := chaos.New(chaos.Config{
			Seed:              seed,
			ErrorRate:         0.03,
			TransientFraction: 0.5,
			PanicRate:         0.02,
			LatencyRate:       0.05,
			MaxLatency:        200 * time.Microsecond,
		})
		res, err := Run(table, space, docs, Config{
			Tau:                0.6,
			Workers:            4,
			MaxFailureFraction: 1,
			Retry:              chaos.Backoff{Attempts: 2, Base: time.Microsecond, Cap: time.Millisecond, Seed: seed},
			FaultHook: func(doc string, stage Stage) error {
				return inj.Fault(doc, string(stage))
			},
		})
		if err != nil {
			t.Fatalf("seed %d: chaos run failed outright: %v", seed, err)
		}
		assertWellFormedPartial(t, res, len(docs))
		var subset []segment.Document
		for _, i := range res.Stats.CompletedDocs {
			subset = append(subset, docs[i])
		}
		if len(subset) == 0 {
			t.Fatalf("seed %d: chaos quarantined every document; rates too hot for the test", seed)
		}
		clean, err := Run(table, space, subset, Config{Tau: 0.6})
		if err != nil {
			t.Fatal(err)
		}
		a, b := res.AllEntities(), clean.AllEntities()
		if len(a) != len(b) {
			t.Fatalf("seed %d: faulted %d entities vs clean subset %d", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("seed %d: entity %d differs: %+v vs %+v", seed, i, a[i], b[i])
			}
		}
		if csvOf(t, res.Table) != csvOf(t, clean.Table) {
			t.Errorf("seed %d: tables differ", seed)
		}
	}
}

// TestRunOptionsOverrides checks RunContextOpts: a per-run DocTimeout and
// Logger take effect without touching the pipeline's configuration.
func TestRunOptionsOverrides(t *testing.T) {
	p, err := New(fig1Table(), fig1Space(), Config{Tau: 0.6, MaxFailureFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	res, err := p.RunContextOpts(context.Background(), fig1Docs(), &RunOptions{
		DocTimeout: time.Nanosecond,
		Logger:     logger,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Quarantined) != 1 {
		t.Fatalf("override DocTimeout did not quarantine: %+v", res.Stats)
	}
	if !strings.Contains(res.Stats.Quarantined[0].Err, "timeout") {
		t.Fatalf("failure does not name the timeout: %+v", res.Stats.Quarantined[0])
	}
	if !strings.Contains(buf.String(), "document quarantined") {
		t.Fatalf("override logger saw no quarantine log: %q", buf.String())
	}
	// The pipeline's own config is untouched: a plain run still succeeds.
	res, err = p.Run(fig1Docs())
	if err != nil || len(res.Stats.Quarantined) != 0 {
		t.Fatalf("plain run after override run failed: err=%v stats=%+v", err, res.Stats)
	}
}
