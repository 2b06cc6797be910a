package thor

import (
	"time"

	"thor/internal/matcher"
	"thor/internal/obs"
)

// Stage names the instrumented phases of Algorithm 1. The values are the
// keys used for Result.Stats.Stages, for the obs.Registry histograms
// ("thor.stage.<name>") and for the per-experiment stage-cost tables.
type Stage string

// The instrumented stages, in pipeline order. See DESIGN.md for the mapping
// to Algorithm 1 line numbers.
const (
	// StageFineTune is phase ①b: matcher fine-tuning (Algorithm 1 line 2).
	StageFineTune Stage = "finetune"
	// StageSegment is phase ①a: sentence segmentation and subject
	// assignment (line 1).
	StageSegment Stage = "segment"
	// StagePOSTag is part-of-speech tagging, the input to the parse
	// (line 6).
	StagePOSTag Stage = "pos_tag"
	// StageDepParse is the dependency parse (line 6).
	StageDepParse Stage = "dep_parse"
	// StagePhraseExtract is noun-phrase extraction over the parse tree —
	// or naive n-gram chunking under Config.NaiveChunking (line 7).
	StagePhraseExtract Stage = "phrase_extract"
	// StageMatch is semantic subphrase matching (lines 8–9).
	StageMatch Stage = "match"
	// StageRefine is syntactic refinement: the word/char similarity
	// scores, score combination, best-entity selection and validation
	// (lines 10–15).
	StageRefine Stage = "refine"
	// StageFill is phase ③: slot filling (lines 16–20).
	StageFill Stage = "fill"
)

// PipelineStages lists every instrumented stage in pipeline order.
var PipelineStages = []Stage{
	StageFineTune, StageSegment, StagePOSTag, StageDepParse,
	StagePhraseExtract, StageMatch, StageRefine, StageFill,
}

// stage indices into the fixed accumulation arrays; must mirror
// PipelineStages.
const (
	idxFineTune = iota
	idxSegment
	idxPOSTag
	idxDepParse
	idxPhraseExtract
	idxMatch
	idxRefine
	idxFill
	numStages
)

// StageStat is one row of the per-stage latency breakdown in Result.Stats.
// Calls is deterministic (identical across worker counts); Total is wall
// clock and varies run to run like any timing.
type StageStat struct {
	// Stage names the pipeline stage.
	Stage Stage
	// Calls is the number of times the stage ran.
	Calls int64
	// Total is the summed duration across all calls.
	Total time.Duration
}

// Mean returns the average duration per call (0 when the stage never ran).
func (s StageStat) Mean() time.Duration {
	if s.Calls == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Calls)
}

// stageAcc accumulates per-stage call counts and durations. Each document
// worker keeps its own accumulator, merged single-threaded afterwards, so
// no synchronization is needed on the hot path.
type stageAcc struct {
	calls [numStages]int64
	total [numStages]time.Duration
}

func (a *stageAcc) observe(i int, d time.Duration) {
	a.calls[i]++
	a.total[i] += d
}

func (a *stageAcc) merge(b *stageAcc) {
	for i := 0; i < numStages; i++ {
		a.calls[i] += b.calls[i]
		a.total[i] += b.total[i]
	}
}

// stats converts the accumulator into the exported breakdown, in pipeline
// order, including stages with zero calls so the shape is stable.
func (a *stageAcc) stats() []StageStat {
	out := make([]StageStat, numStages)
	for i, name := range PipelineStages {
		out[i] = StageStat{Stage: name, Calls: a.calls[i], Total: a.total[i]}
	}
	return out
}

// instruments caches the registry-backed counters and histograms a pipeline
// reports into, resolved once at construction so the hot path performs no
// map lookups. All fields are nil (valid no-op instruments) when the
// pipeline runs without a registry.
type instruments struct {
	stageHist   [numStages]*obs.Histogram
	docs        *obs.Counter
	sentences   *obs.Counter
	phrases     *obs.Counter
	candidates  *obs.Counter
	entities    *obs.Counter
	filled      *obs.Counter
	quarantined *obs.Counter
	skipped     *obs.Counter
	retried     *obs.Counter
}

func newInstruments(reg *obs.Registry) instruments {
	var ins instruments
	if reg == nil {
		return ins
	}
	for i, name := range PipelineStages {
		ins.stageHist[i] = reg.Histogram("thor.stage." + string(name))
	}
	ins.docs = reg.Counter("thor.docs")
	ins.sentences = reg.Counter("thor.sentences")
	ins.phrases = reg.Counter("thor.phrases")
	ins.candidates = reg.Counter("thor.candidates")
	ins.entities = reg.Counter("thor.entities")
	ins.filled = reg.Counter("thor.filled")
	// Fault-isolation counters: quarantined documents, documents skipped by
	// cancellation/abort, and extra attempts consumed by transient retries.
	// docs/sentences/phrases/candidates tick per extraction attempt, so a
	// retried document contributes to them more than once.
	ins.quarantined = reg.Counter("thor.quarantined")
	ins.skipped = reg.Counter("thor.skipped")
	ins.retried = reg.Counter("thor.retries")
	return ins
}

// cacheGauges publishes the sizes of the shared caches a pipeline runs
// through ("thor.cache.*"), sampled after every run so a cache that grows
// without bound shows on /metrics. A gauge is nil — and publishing it free —
// without a registry or without the cache it counts.
type cacheGauges struct {
	parse *ParseCache
	tune  *matcher.Cache

	sentences, documents, groups, refinePairs *obs.Gauge
	matchers, seedClusters                    *obs.Gauge
}

func newCacheGauges(reg *obs.Registry, parse *ParseCache, tune *matcher.Cache) cacheGauges {
	g := cacheGauges{parse: parse, tune: tune}
	if reg == nil {
		return g
	}
	if parse != nil {
		g.sentences = reg.Gauge("thor.cache.sentences")
		g.documents = reg.Gauge("thor.cache.documents")
		g.groups = reg.Gauge("thor.cache.document_groups")
		g.refinePairs = reg.Gauge("thor.cache.refine_pairs")
	}
	if tune != nil {
		g.matchers = reg.Gauge("thor.cache.matchers")
		g.seedClusters = reg.Gauge("thor.cache.seed_clusters")
	}
	return g
}

// publish samples every configured cache's size into its gauge.
func (g *cacheGauges) publish() {
	if g.sentences != nil {
		g.sentences.Set(int64(g.parse.Len()))
		g.documents.Set(int64(g.parse.DocLen()))
		g.groups.Set(int64(g.parse.Groups()))
		g.refinePairs.Set(int64(g.parse.RefineLen()))
	}
	if g.matchers != nil {
		g.matchers.Set(int64(g.tune.Len()))
		g.seedClusters.Set(int64(g.tune.SeedLen()))
	}
}
