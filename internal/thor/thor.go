package thor

import (
	"context"
	"fmt"
	"log/slog"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"thor/internal/chaos"
	"thor/internal/cow"
	"thor/internal/dep"
	"thor/internal/embed"
	"thor/internal/matcher"
	"thor/internal/obs"
	"thor/internal/phrase"
	"thor/internal/pos"
	"thor/internal/schema"
	"thor/internal/segment"
	"thor/internal/strsim"
)

// Entity is a conceptualized entity extracted from text: a phrase paired
// with a concept, attributed to a subject instance, with the refinement
// scores of Algorithm 1 lines 10–13.
type Entity struct {
	// Subject is the subject instance c* the entity relates to.
	Subject string
	// Doc names the document the entity was extracted from (provenance).
	Doc string
	// Phrase is e.p, the extracted (normalized) phrase.
	Phrase string
	// Concept is e.C, the assigned schema concept.
	Concept schema.Concept
	// Matched is c_m, the seed instance the matcher aligned the phrase to.
	Matched string
	// ScoreS, ScoreW and ScoreC are the semantic, word-level (Jaccard) and
	// character-level (Gestalt) similarities to Matched.
	ScoreS, ScoreW, ScoreC float64
	// Score is their combination (the average, by default).
	Score float64
}

// Config controls a pipeline run.
type Config struct {
	// Tau is the user threshold τ ∈ [0,1]; see Table V of the paper.
	Tau float64
	// Knowledge optionally supplies a different table for matcher
	// fine-tuning than the slot-filling target. This is the paper's
	// evaluation setting: the matcher learns from the full structured table
	// R while the cleared test table R_test' receives the slots. Nil means
	// fine-tune on the target table itself.
	Knowledge *schema.Table
	// MinScore discards refined entities whose combined score falls below
	// it. Zero means 0.30.
	MinScore float64
	// Matcher carries advanced matcher options; Tau is copied into it.
	Matcher matcher.Config
	// TuneCache, when set, memoizes matcher fine-tuning across pipelines
	// keyed by (space, table content, matcher config) — see matcher.Cache.
	// Threshold sweeps over the same knowledge table then share one
	// fine-tuned matcher instead of re-expanding identical clusters. Results
	// are identical with or without the cache.
	TuneCache *matcher.Cache
	// ParseCache, when set, shares sentence analysis — POS tagging,
	// dependency parsing, noun-phrase extraction — across pipelines. The
	// analysis is a pure function of the sentence tokens, the tagger lexicon
	// and the chunking mode, all of which are part of the cache key, so one
	// cache may serve differently configured runs. It also shares the
	// refinement scores of every (phrase, matched seed) pair among all
	// pipelines over the same embedding space, whatever their τ or table.
	// Results are identical with or without the cache; only the stage
	// accounting shifts (a cache hit records the lookup under phrase_extract
	// and skips the pos_tag / dep_parse observations).
	ParseCache *ParseCache
	// UseSemantic/UseJaccard/UseGestalt select the refinement scores that
	// participate in the combined score. All false means all three (the
	// paper's configuration). Used by the ablation benchmarks.
	UseSemantic, UseJaccard, UseGestalt bool
	// NaiveChunking replaces dependency-parse noun-phrase extraction with
	// sliding word n-grams (ablation).
	NaiveChunking bool
	// Lexicon optionally extends the POS tagger with domain words.
	Lexicon map[string]pos.Tag
	// Workers sets the number of documents processed concurrently. Zero or
	// one means sequential. Results are identical regardless of the worker
	// count: documents are merged back in input order.
	Workers int
	// Validator, when set, vetoes extracted entities before slot filling —
	// the knowledge-graph context filter of the paper's future work (see
	// the kg package). Must be safe for concurrent use when Workers > 1.
	Validator EntityValidator
	// Metrics, when set, receives per-stage latency histograms
	// ("thor.stage.<name>", see PipelineStages), run counters
	// ("thor.docs", "thor.sentences", "thor.phrases", "thor.candidates",
	// "thor.entities", "thor.filled") and the per-concept sparsity
	// telemetry ("thor.sparsity.*": null density before/after fill, fill
	// rate, cells filled, assignment-score distributions, quarantine
	// fraction — see docs/OBSERVABILITY.md). Nil disables metric reporting at
	// zero cost on the hot path (no allocations; guarded by
	// BenchmarkNilRegistryHotPath in the obs package). Instrumentation
	// never affects results: parallel runs stay identical to sequential
	// ones with or without a registry.
	Metrics *obs.Registry
	// Tracer, when set, records one span per Run ("run"), per document
	// ("doc", with a "doc" attribute), per matcher fine-tune ("finetune")
	// and per quarantined document ("quarantine", with doc/stage/error
	// attributes) into its ring buffer, plus runtime/trace regions when an
	// execution trace is active. Nil disables tracing.
	Tracer *obs.Tracer
	// DocTimeout bounds the wall clock one document may spend in
	// extraction. A document that exceeds it is quarantined (checked
	// cooperatively at stage boundaries, so the bound is approximate by up
	// to one stage call). Zero means no per-document deadline.
	DocTimeout time.Duration
	// StageTimeout bounds the cumulative time any single stage may spend
	// on one document; exceeding it quarantines the document with the
	// offending stage named in the failure. Zero means no per-stage budget.
	StageTimeout time.Duration
	// MaxFailureFraction is the fraction of documents allowed to
	// quarantine before the run aborts with a *RunAbortedError (clamped to
	// [0,1]). Zero — the default — aborts on the first failure, preserving
	// the historic all-or-nothing contract; 1 never aborts. Even an
	// aborted run returns its partial Result alongside the error.
	MaxFailureFraction float64
	// Retry re-runs a document whose extraction failed transiently (an
	// error in whose chain some error declares `Transient() bool` true,
	// e.g. chaos.TransientError) with capped exponential backoff and full
	// jitter. The zero value disables retries. Panics are never retried.
	Retry chaos.Backoff
	// FaultHook, when set, is invoked once per document at the boundary of
	// every per-document stage (segment through refine) with the document
	// name and the stage about to run. A returned error — or a panic —
	// quarantines the document at that stage; chaos.Injector.Fault is the
	// canonical implementation. Must be safe for concurrent use when
	// Workers > 1. Nil costs nothing.
	FaultHook func(doc string, stage Stage) error
	// Explain, when set, makes the run fill slots through FillExplained:
	// Result.Assignments carries every filled cell with its Provenance
	// (source document, matched seed, similarity scores, τ at decision
	// time), and the registry — when one is configured — ticks one
	// "thor.fills_explained.<concept>" counter per explained fill. Off by
	// default; with Explain off the run's outputs are bit-identical to a
	// pre-explain pipeline.
	Explain bool
	// Logger, when set, receives structured run diagnostics — quarantines
	// (warn, with doc_id/stage/error), aborts and cancellations — with
	// correlation fields matching the serving layer's (see obs.LogDocID).
	// Nil disables logging.
	Logger *slog.Logger
	// SkipFill, when set, skips phase ③ entirely: the run does not clone the
	// target table and Result.Table stays nil, Result.Assignments stays nil
	// (even under Explain) and Stats.Filled is 0. Callers that compute their
	// own fills from Result.Entities or Result.Docs — the serving layer uses
	// Assignments/AssignmentsExplained per request — opt out of the per-run
	// table copy this way. Everything up to and including the entity merge is
	// unaffected. Per-run sparsity telemetry is still published: the
	// after-fill null densities are derived from the would-be assignments
	// (computed read-only) instead of an enriched clone, with identical
	// values.
	SkipFill bool
	// CollectDocResults, when set, retains each completed document's
	// individual pre-merge outcome in Result.Docs: its extracted entities
	// in extraction order (before the per-subject set deduplication of the
	// merge), its sentence/phrase/candidate counts and its per-stage cost
	// breakdown. The serving layer uses this to demultiplex one batched
	// run into per-request results that are bit-identical to single-shot
	// runs (see MergeEntities and Fill). Off by default: retaining
	// per-document slices costs memory proportional to the batch.
	CollectDocResults bool
}

// EntityValidator vetoes (phrase, concept) assignments; kg.Validator is the
// canonical implementation.
type EntityValidator interface {
	// Validate reports whether the (phrase, concept) assignment is
	// admissible.
	Validate(phrase string, concept schema.Concept) bool
}

func (c Config) minScore() float64 {
	if c.MinScore == 0 {
		return 0.30
	}
	return c.MinScore
}

// scoreWeights resolves the ablation flags: which of the three scores are
// averaged.
func (c Config) scoreWeights() (sem, jac, ges bool) {
	if !c.UseSemantic && !c.UseJaccard && !c.UseGestalt {
		return true, true, true
	}
	return c.UseSemantic, c.UseJaccard, c.UseGestalt
}

// Stats reports what a run did.
type Stats struct {
	// Documents is the number of input documents.
	Documents int
	// Sentences is the number of segmented sentences.
	Sentences int
	// Phrases is the number of extracted noun phrases.
	Phrases int
	// Candidates is the number of semantic match candidates.
	Candidates int
	// Entities is the number of refined entities after deduplication.
	Entities int
	// Filled is the number of slots written into the table.
	Filled int
	// PrepTime and ExtractTime split the wall clock between phase ① and
	// phases ②–③.
	PrepTime, ExtractTime time.Duration
	// Stages breaks the run down per pipeline stage, in PipelineStages
	// order (every stage is present, even with zero calls). Calls counts
	// are deterministic across worker counts; Total durations are wall
	// clock.
	Stages []StageStat
	// Quarantined lists the documents whose extraction failed — error,
	// panic, per-document deadline or per-stage budget — in input order.
	// Their partial work is discarded entirely, so the merged result is
	// bit-identical to a run over the surviving documents alone.
	Quarantined []DocumentFailure
	// Skipped counts documents never extracted because the run was
	// cancelled or aborted before reaching them (or while they were
	// in flight).
	Skipped int
	// Retried counts extra extraction attempts consumed by transient
	// failures (Config.Retry).
	Retried int
	// CompletedDocs are the input indices of the documents whose outcomes
	// are merged into the result, in input order. On a fully successful
	// run it is simply [0..Documents).
	CompletedDocs []int
	// Cancelled reports that the caller's context ended before the run
	// completed.
	Cancelled bool
}

// Total returns the combined wall-clock duration.
func (s Stats) Total() time.Duration { return s.PrepTime + s.ExtractTime }

// Result is the output of a pipeline run.
type Result struct {
	// Table is the enriched copy of the input table (the input is not
	// modified).
	Table *schema.Table
	// Entities holds every refined entity, grouped by subject instance
	// (the map E[c*] of Algorithm 1).
	Entities map[string][]Entity
	// Docs holds each completed document's individual outcome, in input
	// order. Populated only under Config.CollectDocResults; nil otherwise.
	Docs []DocResult
	// Assignments lists every slot the run filled, each with its
	// Provenance. Populated only under Config.Explain; nil otherwise.
	Assignments []Assignment
	// Stats summarizes the run.
	Stats Stats
}

// DocResult is one document's isolated extraction outcome, before the
// cross-document merge. Entities are in extraction order and not
// deduplicated against other documents, so any subset of documents can be
// re-merged with MergeEntities to reproduce exactly what a run over that
// subset alone would produce.
type DocResult struct {
	// Index is the document's position in the run's input slice.
	Index int
	// Name is the document's name.
	Name string
	// Sentences, Phrases and Candidates are the document's contribution to
	// the run counters of the same names.
	Sentences, Phrases, Candidates int
	// Entities are the document's refined entities in extraction order,
	// before per-subject set deduplication.
	Entities []Entity
	// Stages is the document's per-stage cost breakdown (the per-document
	// stages only: segment through refine; fine-tune and fill are
	// run-level).
	Stages []StageStat
}

// MergeEntities folds per-document entities into the per-subject entity map
// E[c*] of Algorithm 1, applying the same set semantics as a pipeline run:
// documents in input order, duplicate (phrase, concept) pairs per subject
// dropped. Merging the DocResults of any document subset yields exactly the
// Entities map a clean run over that subset produces.
func MergeEntities(docs []DocResult) map[string][]Entity {
	out := make(map[string][]Entity)
	for _, d := range docs {
		for _, e := range d.Entities {
			if hasEntity(out[e.Subject], e) {
				continue
			}
			out[e.Subject] = append(out[e.Subject], e)
		}
	}
	return out
}

// Assignment is one slot filled by phase ③: Value was added to the row of
// Subject under the Concept column. Provenance is attached only on the
// explain path (FillExplained / Config.Explain), so the default wire form is
// unchanged.
type Assignment struct {
	// Subject is the row's subject instance.
	Subject string `json:"subject"`
	// Concept is the column the value was written to.
	Concept schema.Concept `json:"concept"`
	// Value is the written cell value.
	Value string `json:"value"`
	// Provenance, when requested, explains where the value came from.
	Provenance *Provenance `json:"provenance,omitempty"`
}

// Fill applies phase ③ (Algorithm 1 lines 16–20) to the table in place:
// every entity fills its subject's row under its concept, except mentions
// conceptualized as the subject concept itself (the subject column is the
// key). The returned assignments list each cell actually added — values the
// row already held are skipped — with subjects in sorted order and each
// subject's entities in merge order, so the output is deterministic.
func Fill(table *schema.Table, entities map[string][]Entity) []Assignment {
	return fillInto(table, entities, 0, false)
}

// Assignments computes, without mutating or cloning the table, exactly the
// assignment sequence Fill would produce on a fresh copy: same cells, same
// values, same order. It is the read-only form the serving layer fills
// requests through — one shared immutable table, no per-request clone.
func Assignments(table *schema.Table, entities map[string][]Entity) []Assignment {
	return assignmentsFor(table, entities, 0, false)
}

// AssignmentsExplained is Assignments with per-cell Provenance attached,
// mirroring FillExplained the way Assignments mirrors Fill.
func AssignmentsExplained(table *schema.Table, entities map[string][]Entity, tau float64) []Assignment {
	return assignmentsFor(table, entities, tau, true)
}

// fillInto is the shared phase-③ core of Fill and FillExplained: the
// assignments are computed read-only first (the single source of truth the
// Assignments variants share), then applied to the table — so the mutating
// and read-only paths cannot drift apart.
func fillInto(table *schema.Table, entities map[string][]Entity, tau float64, explain bool) []Assignment {
	out := assignmentsFor(table, entities, tau, explain)
	for _, a := range out {
		table.Row(a.Subject).Add(a.Concept, a.Value)
	}
	return out
}

// fillDedupKey identifies a (concept, value) cell within one row,
// case-insensitively — the same identity Row.Add enforces.
type fillDedupKey struct {
	concept schema.Concept
	value   string // lowercased
}

// assignmentsFor walks subjects in sorted order and emits every cell a fill
// pass would add: entities whose concept is the subject concept are skipped
// (the subject column is the key), empty and already-present values are
// skipped, and repeats within one row — which a mutating fill would reject
// via the row's updated state — are rejected via a per-row dedup set, so the
// table itself is never touched.
func assignmentsFor(table *schema.Table, entities map[string][]Entity, tau float64, explain bool) []Assignment {
	subjects := make([]string, 0, len(entities))
	for s := range entities {
		subjects = append(subjects, s)
	}
	sort.Strings(subjects)
	subjectConcept := table.Schema.Subject
	var out []Assignment
	var added map[fillDedupKey]bool
	for _, subj := range subjects {
		row := table.Row(subj)
		if row == nil {
			continue
		}
		clear(added)
		for _, e := range entities[subj] {
			if e.Concept == subjectConcept {
				continue
			}
			if e.Phrase == "" || row.Has(e.Concept, e.Phrase) {
				continue
			}
			key := fillDedupKey{concept: e.Concept, value: strings.ToLower(e.Phrase)}
			if added[key] {
				continue
			}
			if added == nil {
				added = make(map[fillDedupKey]bool)
			}
			added[key] = true
			a := Assignment{Subject: row.Subject, Concept: e.Concept, Value: e.Phrase}
			if explain {
				a.Provenance = &Provenance{
					Doc:      e.Doc,
					Phrase:   e.Phrase,
					Matched:  e.Matched,
					Semantic: e.ScoreS,
					Jaccard:  e.ScoreW,
					Gestalt:  e.ScoreC,
					Score:    e.Score,
					Tau:      tau,
				}
			}
			out = append(out, a)
		}
	}
	return out
}

// AllEntities flattens the per-subject entity map in deterministic order
// (subjects sorted, entities in extraction order).
func (r *Result) AllEntities() []Entity {
	subjects := make([]string, 0, len(r.Entities))
	for s := range r.Entities {
		subjects = append(subjects, s)
	}
	sort.Strings(subjects)
	var out []Entity
	for _, s := range subjects {
		out = append(out, r.Entities[s]...)
	}
	return out
}

// Pipeline is a reusable THOR instance: fine-tuned once (phase ①b), then run
// over any number of documents.
type Pipeline struct {
	cfg     Config
	table   *schema.Table
	space   *embed.Space
	match   *matcher.Matcher
	tagger  *pos.Tagger
	seg     *segment.Segmenter
	prepDur time.Duration
	tuneDur time.Duration
	ins     instruments
	spars   sparsityInstruments
	// refine memoizes the three syntactic-refinement similarities per
	// (phrase, matched seed) pair. The same pairs recur across sentences and
	// documents, and all three scores are pure functions of the pair and the
	// space, so the read-mostly map turns the refinement stage into a
	// lookup. With a ParseCache the memo is the cache's, shared by every
	// pipeline over the same space.
	refine *cow.Map[[2]string, [3]float64]
	// parse is the optional shared sentence-analysis cache (cfg.ParseCache),
	// parseFP the pipeline's analysis-configuration fingerprint and docFP
	// its extension with the segmentation inputs, keying the doc-level tier.
	parse   *ParseCache
	parseFP uint64
	docFP   uint64
}

// New prepares a pipeline for the given integrated table: it fine-tunes the
// semantic matcher from the table's schema and instances (Algorithm 1 line
// 2) and builds the document segmenter over the subject instances.
func New(table *schema.Table, space *embed.Space, cfg Config) (*Pipeline, error) {
	if table == nil {
		return nil, fmt.Errorf("thor: nil table")
	}
	if space == nil {
		return nil, fmt.Errorf("thor: nil embedding space")
	}
	if cfg.Tau < 0 || cfg.Tau > 1 {
		return nil, fmt.Errorf("thor: tau %v outside [0,1]", cfg.Tau)
	}
	start := time.Now()
	knowledge := cfg.Knowledge
	if knowledge == nil {
		knowledge = table
	}
	mcfg := cfg.Matcher
	mcfg.Tau = cfg.Tau
	mcfg.IncludeSubject = true
	sp := cfg.Tracer.StartSpan("finetune")
	tuneStart := time.Now()
	var m *matcher.Matcher
	var err error
	if cfg.TuneCache != nil {
		m, err = cfg.TuneCache.FineTune(space, knowledge, mcfg)
	} else {
		m, err = matcher.FineTune(space, knowledge, mcfg)
	}
	tuneDur := time.Since(tuneStart)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("thor: fine-tune: %w", err)
	}
	tagger := pos.New()
	if cfg.Lexicon != nil {
		tagger.AddLexicon(cfg.Lexicon)
	}
	p := &Pipeline{
		cfg:     cfg,
		table:   table,
		space:   space,
		match:   m,
		tagger:  tagger,
		seg:     segment.New(table.Subjects()),
		prepDur: time.Since(start),
		tuneDur: tuneDur,
		ins:     newInstruments(cfg.Metrics),
		spars:   newSparsityInstruments(cfg.Metrics, table),
		parse:   cfg.ParseCache,
	}
	if p.parse != nil {
		p.parseFP = parseFingerprint(cfg.Lexicon, cfg.NaiveChunking)
		p.docFP = docFingerprint(p.parseFP, table.Subjects())
		p.refine = p.parse.refineFor(space.Index())
	} else {
		p.refine = cow.New[[2]string, [3]float64]()
	}
	// The fine-tune histogram observes once per pipeline; Run seeds its
	// Stats.Stages row from tuneDur instead of re-observing.
	p.ins.stageHist[idxFineTune].Observe(tuneDur)
	return p, nil
}

// docOutcome is one document's extraction output, merged in input order so
// parallel runs stay deterministic.
type docOutcome struct {
	sentences, phrases, candidates int
	entities                       []Entity
	stages                         stageAcc
}

// Run executes phases ①a, ② and ③ over the documents with a background
// context; see RunContext for the full contract.
func (p *Pipeline) Run(docs []segment.Document) (*Result, error) {
	return p.RunContext(context.Background(), docs)
}

// failureAllowance is the number of quarantined documents the run tolerates
// before aborting: floor(MaxFailureFraction · n), clamped to [0, n].
func (p *Pipeline) failureAllowance(n int) int {
	frac := p.cfg.MaxFailureFraction
	if frac <= 0 {
		return 0
	}
	if frac >= 1 {
		return n
	}
	return int(frac * float64(n))
}

// RunOptions are per-run overrides of a pipeline's configuration, for
// callers that reuse one fine-tuned Pipeline across many runs with varying
// request-scoped parameters (the serving layer's batch loop). Every field's
// zero value means "use the pipeline Config's setting".
type RunOptions struct {
	// DocTimeout overrides Config.DocTimeout when positive.
	DocTimeout time.Duration
	// Logger overrides Config.Logger when non-nil (e.g. a batch-correlated
	// logger).
	Logger *slog.Logger
}

// RunContext executes phases ①a, ② and ③ over the documents and returns the
// enriched table and extracted entities. With Config.Workers > 1, documents
// are processed concurrently and merged back in input order, so the result
// is identical to a sequential run.
//
// Fault isolation: a document whose extraction errors, panics, or exceeds
// its deadline is quarantined — recorded in Result.Stats.Quarantined with
// its stage, error and (for panics) stack — while the remaining documents
// complete. When quarantines exceed Config.MaxFailureFraction the run stops
// early and returns a *RunAbortedError. When ctx ends mid-run, in-flight and
// unprocessed documents are skipped and the context's error is returned.
// In both cases — unlike the usual Go convention — the returned *Result is
// non-nil and valid: it merges every document that completed, bit-identical
// to a clean run over exactly those documents.
func (p *Pipeline) RunContext(ctx context.Context, docs []segment.Document) (*Result, error) {
	return p.RunContextOpts(ctx, docs, nil)
}

// RunContextOpts is RunContext with per-run overrides; a nil opts is
// equivalent to RunContext.
func (p *Pipeline) RunContextOpts(ctx context.Context, docs []segment.Document, opts *RunOptions) (*Result, error) {
	if len(docs) == 0 {
		return nil, fmt.Errorf("thor: no documents")
	}
	docTimeout, logger := p.cfg.DocTimeout, p.cfg.Logger
	if opts != nil {
		if opts.DocTimeout > 0 {
			docTimeout = opts.DocTimeout
		}
		if opts.Logger != nil {
			logger = opts.Logger
		}
	}
	// The run span attaches under whatever SpanRefs the caller's context
	// carries (the serving layer's batch span, fanned out per request);
	// without refs it records flat, exactly as before request tracing.
	ctx, runSpan := p.cfg.Tracer.StartSpanCtx(ctx, "run")
	defer runSpan.End()
	start := time.Now()
	res := &Result{
		Entities: make(map[string][]Entity),
	}
	if !p.cfg.SkipFill {
		res.Table = p.table.Clone()
	}
	res.Stats.Documents = len(docs)
	res.Stats.PrepTime = p.prepDur

	// runCtx is cancelled by the caller's ctx or by the failure threshold
	// tripping; either way the workers drain their remaining jobs without
	// extracting them.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	allowance := p.failureAllowance(len(docs))
	var failed atomic.Int64
	noteFailure := func() {
		if failed.Add(1) > int64(allowance) {
			cancelRun()
		}
	}

	// ①a + ②: segmentation and entity extraction.
	outcomes := make([]*docOutcome, len(docs))
	errs := make([]error, len(docs))
	tries := make([]int, len(docs))
	if w := p.cfg.Workers; w > 1 {
		var wg sync.WaitGroup
		jobs := make(chan int)
		for k := 0; k < w; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Each worker carries its own pooled match context so Match's
				// scratch space is reused without contention — and across
				// runs, so the steady state allocates no scratch at all.
				mctx := p.match.AcquireContext()
				defer p.match.ReleaseContext(mctx)
				for i := range jobs {
					if runCtx.Err() != nil {
						continue // drain; the document stays unattempted
					}
					outcomes[i], tries[i], errs[i] = p.extractDocResilient(runCtx, docs[i], mctx, docTimeout)
					if errs[i] != nil && !isContextErr(errs[i]) {
						noteFailure()
					}
				}
			}()
		}
		for i := range docs {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	} else {
		mctx := p.match.AcquireContext()
		for i := range docs {
			if runCtx.Err() != nil {
				break
			}
			outcomes[i], tries[i], errs[i] = p.extractDocResilient(runCtx, docs[i], mctx, docTimeout)
			if errs[i] != nil && !isContextErr(errs[i]) {
				noteFailure()
			}
		}
		p.match.ReleaseContext(mctx)
	}
	aborted := failed.Load() > int64(allowance)
	cancelled := ctx.Err() != nil

	// Merge per-document outcomes in input order, deduplicating entities
	// per subject (the set semantics of E[c*] in Algorithm 1). Failed
	// documents contribute nothing — their partial work is discarded — so
	// the merged result over the surviving subset is exactly what a clean
	// run over that subset produces. The stage breakdown starts from the
	// one-off fine-tune cost (already observed into the histogram by New).
	acc := stageAcc{}
	acc.observe(idxFineTune, p.tuneDur)
	for i, o := range outcomes {
		res.Stats.Retried += tries[i]
		if err := errs[i]; err != nil {
			if isContextErr(err) {
				res.Stats.Skipped++
				continue
			}
			f := failureOf(docs[i].Name, i, err)
			res.Stats.Quarantined = append(res.Stats.Quarantined, f)
			_, qs := p.cfg.Tracer.StartSpanCtx(ctx, "quarantine",
				obs.String("doc", f.Doc),
				obs.String("stage", string(f.Stage)),
				obs.String("error", f.Err))
			qs.End()
			if logger != nil {
				logger.Warn("document quarantined",
					obs.LogDocID, f.Doc,
					"stage", string(f.Stage),
					"error", f.Err)
			}
			continue
		}
		if o == nil { // never attempted: run ended first
			res.Stats.Skipped++
			continue
		}
		res.Stats.CompletedDocs = append(res.Stats.CompletedDocs, i)
		res.Stats.Sentences += o.sentences
		res.Stats.Phrases += o.phrases
		res.Stats.Candidates += o.candidates
		acc.merge(&o.stages)
		if p.cfg.CollectDocResults {
			res.Docs = append(res.Docs, DocResult{
				Index:      i,
				Name:       docs[i].Name,
				Sentences:  o.sentences,
				Phrases:    o.phrases,
				Candidates: o.candidates,
				Entities:   o.entities,
				Stages:     o.stages.stats(),
			})
		}
		for _, e := range o.entities {
			if hasEntity(res.Entities[e.Subject], e) {
				continue
			}
			res.Entities[e.Subject] = append(res.Entities[e.Subject], e)
			res.Stats.Entities++
			p.spars.observeScore(e)
		}
	}
	p.ins.quarantined.Add(int64(len(res.Stats.Quarantined)))
	p.ins.skipped.Add(int64(res.Stats.Skipped))
	p.ins.retried.Add(int64(res.Stats.Retried))

	// ③ Slot filling (Algorithm 1 lines 16–20). The explain path runs the
	// identical fill and additionally retains the per-cell provenance. Under
	// SkipFill no table is cloned or written; the would-be assignments are
	// still computed (read-only) when a registry wants the sparsity
	// telemetry, and they are identical to what a filling run would apply.
	fillStart := time.Now()
	var assignments []Assignment
	switch {
	case p.cfg.SkipFill:
		if p.cfg.Metrics != nil {
			assignments = Assignments(p.table, res.Entities)
		}
	case p.cfg.Explain:
		res.Assignments = FillExplained(res.Table, res.Entities, p.cfg.Tau)
		assignments = res.Assignments
		for _, a := range res.Assignments {
			p.cfg.Metrics.Counter("thor.fills_explained." + string(a.Concept)).Add(1)
		}
	default:
		assignments = Fill(res.Table, res.Entities)
	}
	if !p.cfg.SkipFill {
		res.Stats.Filled = len(assignments)
	}
	acc.observe(idxFill, time.Since(fillStart))
	p.ins.stageHist[idxFill].Observe(time.Since(fillStart))
	// Sparsity telemetry: the paper's headline effect — null density removed
	// per concept — published after every run. No-op without a registry.
	p.spars.recordRun(p.table, res.Table, assignments, &res.Stats)

	res.Stats.ExtractTime = time.Since(start)
	res.Stats.Stages = acc.stats()
	// Per-stage summary spans: one span per stage with calls, total
	// duration — children of the run span, fanned into each request trace
	// the context carries. Emitted only when the run is traced.
	if refs := obs.SpanRefs(ctx); len(refs) > 0 {
		for _, st := range res.Stats.Stages {
			if st.Calls == 0 {
				continue
			}
			p.cfg.Tracer.RecordSpan(refs, "stage."+string(st.Stage), start, st.Total,
				obs.String("calls", fmt.Sprint(st.Calls)))
		}
	}
	// docs/sentences/phrases/candidates tick live in extractDoc; entities
	// and filled only exist after the merge and fill phases.
	p.ins.entities.Add(int64(res.Stats.Entities))
	p.ins.filled.Add(int64(res.Stats.Filled))

	switch {
	case cancelled:
		res.Stats.Cancelled = true
		return res, fmt.Errorf("thor: run cancelled after %d of %d documents: %w",
			len(res.Stats.CompletedDocs), len(docs), ctx.Err())
	case aborted:
		return res, &RunAbortedError{
			Failures:           res.Stats.Quarantined,
			Documents:          len(docs),
			MaxFailureFraction: p.cfg.MaxFailureFraction,
		}
	}
	return res, nil
}

// extractDocResilient wraps one document's extraction in the configured
// retry policy: transient failures are re-attempted with capped, jittered
// backoff; panics and permanent errors surface immediately. retries is the
// number of extra attempts consumed.
func (p *Pipeline) extractDocResilient(ctx context.Context, doc segment.Document, mctx *matcher.MatchContext, docTimeout time.Duration) (out *docOutcome, retries int, err error) {
	err = chaos.Retry(ctx, p.cfg.Retry, doc.Name, func(attempt int) error {
		retries = attempt
		o, e := p.extractDocSafe(ctx, doc, mctx, docTimeout)
		out = o
		return e
	})
	if err != nil {
		out = nil
	}
	return out, retries, err
}

// docRun carries one extraction attempt's cancellation state: the run
// context, the document's own deadline, the last stage entered (so a panic
// is attributed to the stage it escaped from), and which stage-entry fault
// hooks have fired this attempt.
type docRun struct {
	ctx      context.Context
	doc      string
	deadline time.Time     // zero when no document timeout is in force
	timeout  time.Duration // the timeout behind deadline, for error messages
	stage    Stage         // last stage entered, for failure attribution
	hooked   [numStages]bool
}

// checkpoint marks entry into a stage: it records the stage for failure
// attribution, honors run-level cancellation and the document deadline, and
// fires the stage-entry fault hook (once per stage per attempt). With no
// deadline and no hook configured the cost is one atomic context check.
func (p *Pipeline) checkpoint(dr *docRun, idx int) error {
	dr.stage = PipelineStages[idx]
	if err := dr.ctx.Err(); err != nil {
		return err
	}
	if !dr.deadline.IsZero() && time.Now().After(dr.deadline) {
		return &docError{stage: dr.stage, cause: fmt.Errorf("document timeout %v exceeded", dr.timeout)}
	}
	if h := p.cfg.FaultHook; h != nil && !dr.hooked[idx] {
		dr.hooked[idx] = true
		if err := h(dr.doc, dr.stage); err != nil {
			return &docError{stage: dr.stage, cause: err}
		}
	}
	return nil
}

// observeChecked records one stage call and enforces the per-stage time
// budget: a stage whose cumulative time on this document exceeds
// Config.StageTimeout quarantines the document.
func (p *Pipeline) observeChecked(dr *docRun, acc *stageAcc, i int, d time.Duration) error {
	p.observe(acc, i, d)
	if st := p.cfg.StageTimeout; st > 0 && acc.total[i] > st {
		return &docError{stage: PipelineStages[i],
			cause: fmt.Errorf("stage budget %v exceeded (spent %v)", st, acc.total[i])}
	}
	return nil
}

// extractDocSafe runs one extraction attempt with panic recovery: a
// panicking stage, fault hook or Validator surfaces as a stage-attributed
// error carrying the goroutine stack, feeding the quarantine record instead
// of crashing the worker pool.
func (p *Pipeline) extractDocSafe(ctx context.Context, doc segment.Document, mctx *matcher.MatchContext, docTimeout time.Duration) (out *docOutcome, err error) {
	_, sp := p.cfg.Tracer.StartSpanCtx(ctx, "doc", obs.String("doc", doc.Name))
	defer sp.End()
	dr := &docRun{ctx: ctx, doc: doc.Name, stage: StageSegment, timeout: docTimeout}
	if docTimeout > 0 {
		dr.deadline = time.Now().Add(docTimeout)
	}
	defer func() {
		if r := recover(); r != nil {
			out = nil
			err = &docError{
				stage: dr.stage,
				cause: fmt.Errorf("extraction panicked: %v", r),
				stack: debug.Stack(),
			}
		}
	}()
	out, err = p.extractDoc(dr, doc, mctx)
	if err != nil {
		out = nil
	}
	return out, err
}

// analyzeDoc produces one document's sentence/subject assignments and, for
// every attributed sentence, its candidate noun phrases. With a ParseCache
// configured, whole-document results are memoized: a warm document costs one
// lookup (booked under the segment stage) and no per-sentence key building at
// all — the serving layer's warm fill path depends on this. A miss runs the
// full analysis (the sentence-level cache tier still applies) and publishes
// the completed entry; failed analyses publish nothing.
func (p *Pipeline) analyzeDoc(dr *docRun, doc segment.Document, acc *stageAcc) (docEntry, error) {
	if err := p.checkpoint(dr, idxSegment); err != nil {
		return docEntry{}, err
	}
	var key docKey
	t0 := time.Now()
	if p.parse != nil {
		key = docKey{cfg: p.docFP, subject: doc.DefaultSubject, text: doc.Text}
		if e, ok := p.parse.docs.Get(key); ok {
			if err := p.observeChecked(dr, acc, idxSegment, time.Since(t0)); err != nil {
				return docEntry{}, err
			}
			return *e, nil
		}
	}
	e := docEntry{assignments: p.seg.Segment(doc)}
	if err := p.observeChecked(dr, acc, idxSegment, time.Since(t0)); err != nil {
		return docEntry{}, err
	}
	e.phrases = make([][]phrase.Phrase, len(e.assignments))
	for i := range e.assignments {
		if e.assignments[i].Subject == "" {
			continue
		}
		phs, err := p.phrases(dr, e.assignments[i], acc)
		if err != nil {
			return docEntry{}, err
		}
		e.phrases[i] = phs
	}
	if p.parse != nil {
		p.parse.docs.Put(key, &e)
	}
	return e, nil
}

// extractDoc runs segmentation plus lines 6–15 of Algorithm 1 over one
// document, checking for cancellation, deadlines and injected faults at
// stage boundaries.
func (p *Pipeline) extractDoc(dr *docRun, doc segment.Document, mctx *matcher.MatchContext) (*docOutcome, error) {
	out := &docOutcome{}
	semW, jacW, gesW := p.cfg.scoreWeights()
	entry, err := p.analyzeDoc(dr, doc, &out.stages)
	if err != nil {
		return nil, err
	}
	p.ins.docs.Add(1)
	p.ins.sentences.Add(int64(len(entry.assignments)))
	for si, asg := range entry.assignments {
		out.sentences++
		if asg.Subject == "" {
			continue
		}
		phrases := entry.phrases[si]
		out.phrases += len(phrases)
		p.ins.phrases.Add(int64(len(phrases)))
		for _, ph := range phrases {
			if err := p.checkpoint(dr, idxMatch); err != nil {
				return nil, err
			}
			t0 := time.Now()
			// MatchBuf returns the context's scratch-backed candidates; they
			// are consumed (and their strings copied into the best Entity)
			// before the next call, so the hot loop allocates nothing for
			// rejected phrases.
			cands := mctx.MatchBuf(ph)
			if err := p.observeChecked(dr, &out.stages, idxMatch, time.Since(t0)); err != nil {
				return nil, err
			}
			out.candidates += len(cands)
			p.ins.candidates.Add(int64(len(cands)))
			if err := p.checkpoint(dr, idxRefine); err != nil {
				return nil, err
			}
			t0 = time.Now()
			var best Entity
			found := false
			for _, c := range cands {
				e := Entity{
					Subject: asg.Subject,
					Doc:     doc.Name,
					Phrase:  c.Phrase,
					Concept: c.Concept,
					Matched: c.Matched,
				}
				e.ScoreS, e.ScoreW, e.ScoreC = p.refineScores(c.Phrase, c.Matched)
				e.Score = combine(e, semW, jacW, gesW)
				if !found || e.Score > best.Score {
					best, found = e, true
				}
			}
			refined := found && best.Score >= p.cfg.minScore() &&
				(p.cfg.Validator == nil || p.cfg.Validator.Validate(best.Phrase, best.Concept))
			if err := p.observeChecked(dr, &out.stages, idxRefine, time.Since(t0)); err != nil {
				return nil, err
			}
			if refined {
				out.entities = append(out.entities, best)
			}
		}
	}
	return out, nil
}

// refineScores returns the semantic, Jaccard and Gestalt similarities of a
// (phrase, matched seed) pair, memoized — all three are pure functions of
// the pair.
func (p *Pipeline) refineScores(phrase, matched string) (s, w, c float64) {
	key := [2]string{phrase, matched}
	if sc, ok := p.refine.Get(key); ok {
		return sc[0], sc[1], sc[2]
	}
	sc := [3]float64{
		p.match.Similarity(phrase, matched),
		strsim.Jaccard(phrase, matched),
		strsim.Gestalt(phrase, matched),
	}
	p.refine.Put(key, sc)
	return sc[0], sc[1], sc[2]
}

// observe records one stage call into the per-document accumulator and,
// when a registry is configured, into its latency histogram. With no
// registry the histogram pointer is nil and Observe is a guarded no-op, so
// the hot path pays nothing beyond the two time.Now calls that feed
// Stats.Stages.
func (p *Pipeline) observe(acc *stageAcc, i int, d time.Duration) {
	acc.observe(i, d)
	p.ins.stageHist[i].Observe(d)
}

// phrases produces the candidate noun phrases of a sentence, consulting the
// shared parse cache when one is configured. A hit books the lookup under
// the phrase-extract stage; a miss runs the full analysis (observing every
// stage as usual) and publishes the result. Nothing is published for a
// failed analysis.
func (p *Pipeline) phrases(dr *docRun, asg segment.Assignment, acc *stageAcc) ([]phrase.Phrase, error) {
	if p.parse == nil {
		return p.analyze(dr, asg, acc)
	}
	if err := p.checkpoint(dr, idxPhraseExtract); err != nil {
		return nil, err
	}
	t0 := time.Now()
	key := parseKey{cfg: p.parseFP, sent: sentenceKey(asg.Sentence)}
	if phs, ok := p.parse.m.Get(key); ok {
		if err := p.observeChecked(dr, acc, idxPhraseExtract, time.Since(t0)); err != nil {
			return nil, err
		}
		return phs, nil
	}
	phs, err := p.analyze(dr, asg, acc)
	if err != nil {
		return nil, err
	}
	p.parse.m.Put(key, phs)
	return phs, nil
}

// analyze produces the candidate noun phrases of a sentence, via the
// dependency parse (default) or naive n-gram chunking (ablation), recording
// the POS-tag, parse and extraction stage costs.
func (p *Pipeline) analyze(dr *docRun, asg segment.Assignment, acc *stageAcc) ([]phrase.Phrase, error) {
	if p.cfg.NaiveChunking {
		if err := p.checkpoint(dr, idxPhraseExtract); err != nil {
			return nil, err
		}
		t0 := time.Now()
		out := naiveChunks(asg)
		if err := p.observeChecked(dr, acc, idxPhraseExtract, time.Since(t0)); err != nil {
			return nil, err
		}
		return out, nil
	}
	if err := p.checkpoint(dr, idxPOSTag); err != nil {
		return nil, err
	}
	t0 := time.Now()
	tagged := p.tagger.Tag(asg.Sentence)
	if err := p.observeChecked(dr, acc, idxPOSTag, time.Since(t0)); err != nil {
		return nil, err
	}
	if err := p.checkpoint(dr, idxDepParse); err != nil {
		return nil, err
	}
	t0 = time.Now()
	tree := dep.Parse(tagged)
	if err := p.observeChecked(dr, acc, idxDepParse, time.Since(t0)); err != nil {
		return nil, err
	}
	if err := p.checkpoint(dr, idxPhraseExtract); err != nil {
		return nil, err
	}
	t0 = time.Now()
	out := phrase.Extract(tree)
	if err := p.observeChecked(dr, acc, idxPhraseExtract, time.Since(t0)); err != nil {
		return nil, err
	}
	return out, nil
}

// naiveChunks emits every 1..3-word window of the sentence's words as a
// phrase, the strawman chunker for BenchmarkAblationChunking. Each window
// is copied so phrases never alias the sentence's backing array.
func naiveChunks(asg segment.Assignment) []phrase.Phrase {
	words := asg.Sentence.Words()
	var out []phrase.Phrase
	for n := 1; n <= 3; n++ {
		for i := 0; i+n <= len(words); i++ {
			w := make([]string, n)
			copy(w, words[i:i+n])
			out = append(out, phrase.Phrase{Words: w, HeadWord: w[n-1]})
		}
	}
	return out
}

func combine(e Entity, sem, jac, ges bool) float64 {
	sum, n := 0.0, 0
	if sem {
		sum += e.ScoreS
		n++
	}
	if jac {
		sum += e.ScoreW
		n++
	}
	if ges {
		sum += e.ScoreC
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func hasEntity(es []Entity, e Entity) bool {
	for _, x := range es {
		if x.Phrase == e.Phrase && x.Concept == e.Concept {
			return true
		}
	}
	return false
}

// Run is the one-shot convenience: prepare a pipeline and run it over the
// documents.
func Run(table *schema.Table, space *embed.Space, docs []segment.Document, cfg Config) (*Result, error) {
	p, err := New(table, space, cfg)
	if err != nil {
		return nil, err
	}
	return p.Run(docs)
}

// RunContext is Run with a caller-controlled context: cancellation or a
// deadline time-boxes the document phase and yields a valid partial Result
// (see Pipeline.RunContext). Fine-tuning in New is not cancellable; its
// cost is bounded by the knowledge table, not the documents.
func RunContext(ctx context.Context, table *schema.Table, space *embed.Space, docs []segment.Document, cfg Config) (*Result, error) {
	p, err := New(table, space, cfg)
	if err != nil {
		return nil, err
	}
	return p.RunContext(ctx, docs)
}
