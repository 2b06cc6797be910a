package thor

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"thor/internal/datagen"
	"thor/internal/embed"
	"thor/internal/matcher"
	"thor/internal/schema"
	"thor/internal/segment"
)

// fig1Space plants the running example's semantic geometry: anatomy words in
// a moderately tight cluster, and the cancer/tumor family sharing a noise
// direction so 'tumor' is (as in real embeddings) nearly synonymous with
// 'cancer'.
func fig1Space() *embed.Space {
	s := embed.NewSpace()
	anatomy := embed.HashVector("centroid:anatomy")
	complication := embed.HashVector("centroid:complication")
	add := func(centroid embed.Vector, alpha float64, noiseKey string, words ...string) {
		for _, w := range words {
			for _, part := range strings.Fields(w) {
				key := noiseKey
				if key == "" {
					key = "noise:" + part
				}
				s.Add(part, embed.Blend(centroid, embed.HashVector(key), alpha))
			}
		}
	}
	add(anatomy, 0.58, "", "nervous system", "brain", "nerve", "ear", "lungs", "spine")
	add(complication, 0.60, "", "unsteadiness", "empyema", "loss")
	add(complication, 0.85, "noise:cancer-family", "cancer", "cancerous", "non-cancerous", "tumor")
	s.Add("skin", embed.Blend(complication, embed.HashVector("noise:skin"), 0.55))
	return s
}

func fig1Table() *schema.Table {
	t := schema.NewTable(schema.NewSchema("Disease", "Anatomy", "Complication"))
	r := t.AddRow("Acoustic Neuroma")
	r.Add("Anatomy", "nervous system")
	t.AddRow("Tuberculosis").Add("Complication", "skin cancer")
	return t
}

func fig1Docs() []segment.Document {
	return []segment.Document{{
		Name: "sample",
		Text: "An Acoustic Neuroma is a slow-growing non-cancerous brain tumor. " +
			"It develops on the main nerve leading from the inner ear to the brain. " +
			"Tuberculosis generally damages the lungs.",
	}}
}

func TestPipelineFig1EndToEnd(t *testing.T) {
	res, err := Run(fig1Table(), fig1Space(), fig1Docs(), Config{Tau: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Sentences != 3 {
		t.Errorf("sentences = %d, want 3", res.Stats.Sentences)
	}
	// The labeled null for Acoustic Neuroma's Complication must be filled
	// from the conceptualized text (the paper's headline behavior).
	an := res.Table.Row("Acoustic Neuroma")
	if an.Missing("Complication") {
		t.Errorf("Complication slot not filled; entities: %+v", res.Entities["Acoustic Neuroma"])
	}
	// Additional Anatomy information should also be captured.
	foundAnatomy := false
	for _, e := range res.Entities["Acoustic Neuroma"] {
		if e.Concept == "Anatomy" {
			foundAnatomy = true
		}
	}
	if !foundAnatomy {
		t.Error("no Anatomy entity extracted for Acoustic Neuroma")
	}
	// Tuberculosis: 'lungs' is Anatomy.
	tb := res.Table.Row("Tuberculosis")
	if !tb.Has("Anatomy", "lungs") {
		t.Errorf("Tuberculosis Anatomy not filled: %+v", tb.Cells)
	}
	// The input table must not have been mutated.
	if fig1Table().Row("Acoustic Neuroma").Has("Complication", "non-cancerous brain tumor") {
		t.Error("input table mutated")
	}
}

func TestPipelineSyntacticRefinementPrefersComplication(t *testing.T) {
	// Section IV-B: for 'slow-growing non-cancerous brain tumor', syntactic
	// similarity to seed 'skin cancer' should make the Complication reading
	// win over the bare-'brain' Anatomy reading.
	res, err := Run(fig1Table(), fig1Space(), fig1Docs(), Config{Tau: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	var best *Entity
	for i, e := range res.Entities["Acoustic Neuroma"] {
		if strings.Contains(e.Phrase, "tumor") || strings.Contains(e.Phrase, "cancerous") {
			best = &res.Entities["Acoustic Neuroma"][i]
			break
		}
	}
	if best == nil {
		t.Fatalf("no tumor-phrase entity extracted: %+v", res.Entities["Acoustic Neuroma"])
	}
	if best.Concept != "Complication" {
		t.Errorf("tumor phrase conceptualized as %v, want Complication", best.Concept)
	}
	if best.Score <= 0 || best.Score > 1 {
		t.Errorf("combined score out of range: %v", best.Score)
	}
}

func TestPipelineTauPrecisionRecallTradeoff(t *testing.T) {
	loose, err := Run(fig1Table(), fig1Space(), fig1Docs(), Config{Tau: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	strict, err := Run(fig1Table(), fig1Space(), fig1Docs(), Config{Tau: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if strict.Stats.Entities > loose.Stats.Entities {
		t.Errorf("strict τ produced more entities (%d) than loose (%d)",
			strict.Stats.Entities, loose.Stats.Entities)
	}
	if strict.Stats.Candidates > loose.Stats.Candidates {
		t.Errorf("strict τ produced more candidates (%d) than loose (%d)",
			strict.Stats.Candidates, loose.Stats.Candidates)
	}
}

func TestPipelineSubjectConceptNotFilled(t *testing.T) {
	res, err := Run(fig1Table(), fig1Space(), fig1Docs(), Config{Tau: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Table.Rows {
		if len(r.Cells[res.Table.Schema.Subject]) != 0 {
			t.Errorf("subject column was slot-filled for %q", r.Subject)
		}
	}
}

func TestPipelineErrors(t *testing.T) {
	if _, err := Run(nil, fig1Space(), fig1Docs(), Config{Tau: 0.5}); err == nil {
		t.Error("nil table should error")
	}
	if _, err := Run(fig1Table(), nil, fig1Docs(), Config{Tau: 0.5}); err == nil {
		t.Error("nil space should error")
	}
	if _, err := Run(fig1Table(), fig1Space(), nil, Config{Tau: 0.5}); err == nil {
		t.Error("no documents should error")
	}
	if _, err := Run(fig1Table(), fig1Space(), fig1Docs(), Config{Tau: -0.1}); err == nil {
		t.Error("negative tau should error")
	}
}

func TestPipelineReusable(t *testing.T) {
	p, err := New(fig1Table(), fig1Space(), Config{Tau: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := p.Run(fig1Docs())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.Run(fig1Docs())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.Entities != r2.Stats.Entities {
		t.Errorf("re-running the pipeline changed results: %d vs %d",
			r1.Stats.Entities, r2.Stats.Entities)
	}
}

func TestPipelineAblationFlags(t *testing.T) {
	semOnly, err := Run(fig1Table(), fig1Space(), fig1Docs(), Config{Tau: 0.6, UseSemantic: true})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(fig1Table(), fig1Space(), fig1Docs(), Config{Tau: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	// Semantic-only scores are the raw similarity; combined scores include
	// the (usually lower) syntactic components, so per-entity scores differ.
	if len(semOnly.AllEntities()) == 0 || len(full.AllEntities()) == 0 {
		t.Fatal("ablation runs extracted nothing")
	}
	naive, err := Run(fig1Table(), fig1Space(), fig1Docs(), Config{Tau: 0.6, NaiveChunking: true})
	if err != nil {
		t.Fatal(err)
	}
	if naive.Stats.Phrases <= full.Stats.Phrases {
		t.Errorf("naive chunking should inflate phrase count: %d vs %d",
			naive.Stats.Phrases, full.Stats.Phrases)
	}
}

func TestPipelineEntityDeduplication(t *testing.T) {
	docs := []segment.Document{{
		Name: "dup",
		Text: "Acoustic Neuroma affects the brain. Acoustic Neuroma affects the brain.",
	}}
	res, err := Run(fig1Table(), fig1Space(), docs, Config{Tau: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, e := range res.Entities["Acoustic Neuroma"] {
		seen[e.Phrase+"|"+string(e.Concept)]++
	}
	for k, n := range seen {
		if n > 1 {
			t.Errorf("entity %s extracted %d times", k, n)
		}
	}
}

func TestAllEntitiesDeterministic(t *testing.T) {
	res, err := Run(fig1Table(), fig1Space(), fig1Docs(), Config{Tau: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	a := res.AllEntities()
	b := res.AllEntities()
	if len(a) != len(b) {
		t.Fatal("AllEntities unstable length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("AllEntities order unstable at %d", i)
		}
	}
}

func TestStatsTotal(t *testing.T) {
	res, err := Run(fig1Table(), fig1Space(), fig1Docs(), Config{Tau: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Total() < res.Stats.ExtractTime {
		t.Error("Total < ExtractTime")
	}
}

func TestPipelineParallelMatchesSequential(t *testing.T) {
	table, space := fig1Table(), fig1Space()
	// Several documents so the worker pool actually interleaves.
	var docs []segment.Document
	for i := 0; i < 8; i++ {
		docs = append(docs, fig1Docs()[0])
		docs[i].Name = fmt.Sprintf("doc-%d", i)
	}
	seq, err := Run(table, space, docs, Config{Tau: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(table, space, docs, Config{Tau: 0.6, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, b := seq.AllEntities(), par.AllEntities()
	if len(a) != len(b) {
		t.Fatalf("parallel run differs: %d vs %d entities", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("entity %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if seq.Stats.Entities != par.Stats.Entities || seq.Stats.Filled != par.Stats.Filled {
		t.Errorf("stats differ: %+v vs %+v", seq.Stats, par.Stats)
	}
}

// TestPipelineCachedPathsMatchUncached extends the parallel-determinism
// property to the cached fine-tune, parse and refinement paths: a τ sweep
// sharing one matcher cache and one parse cache — sequentially and under a
// parallel worker pool, with the caches warm and cold — must produce exactly
// the entities of an uncached sequential run at every threshold, every field
// and score included. It runs over the fig1 table and, unless -short, over
// seeded subsets of generated Disease datasets.
func TestPipelineCachedPathsMatchUncached(t *testing.T) {
	var docs []segment.Document
	for i := 0; i < 8; i++ {
		docs = append(docs, fig1Docs()[0])
		docs[i].Name = fmt.Sprintf("doc-%d", i)
	}
	checkCachedMatchesUncached(t, "fig1", fig1Table(), fig1Space(), docs, Config{})
	if testing.Short() {
		return // the generated Disease subsets take seconds
	}
	for _, seed := range []int64{datagen.DiseaseSeed, 3, 11} {
		ds := datagen.Disease(seed)
		rng := rand.New(rand.NewSource(seed))
		var sub []segment.Document
		for _, i := range rng.Perm(len(ds.Test.Docs))[:10] {
			sub = append(sub, ds.Test.Docs[i])
		}
		checkCachedMatchesUncached(t, fmt.Sprintf("disease seed %d", seed), ds.TestTable(), ds.Space, sub,
			Config{Knowledge: ds.Table, Lexicon: ds.Lexicon})
	}
}

// checkCachedMatchesUncached runs the six-τ sweep of the cached-path
// property over one table, space and document set; base supplies every
// setting but τ, the workers and the caches.
func checkCachedMatchesUncached(t *testing.T, name string, table *schema.Table, space *embed.Space, docs []segment.Document, base Config) {
	t.Helper()
	tune := matcher.NewCache()
	parse := NewParseCache()
	for _, tau := range []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
		cfg := base
		cfg.Tau = tau
		plain, err := Run(table, space, docs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := plain.AllEntities()
		for _, workers := range []int{0, 4} {
			// Two rounds per configuration: the first may fill the shared
			// caches, the second always hits them.
			for round := 0; round < 2; round++ {
				cfg.Workers, cfg.TuneCache, cfg.ParseCache = workers, tune, parse
				res, err := Run(table, space, docs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				where := fmt.Sprintf("%s τ=%.1f workers=%d round=%d", name, tau, workers, round)
				checkSameEntities(t, where, res.AllEntities(), want)
			}
		}
	}
	if parse.Len() == 0 {
		t.Errorf("%s: parse cache never populated", name)
	}
}

// checkSameEntities asserts that got and want hold the same entities in the
// same order, every field equal and every score equal bit for bit.
func checkSameEntities(t *testing.T, where string, got, want []Entity) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entities, want %d", where, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g != w ||
			math.Float64bits(g.ScoreS) != math.Float64bits(w.ScoreS) ||
			math.Float64bits(g.ScoreW) != math.Float64bits(w.ScoreW) ||
			math.Float64bits(g.ScoreC) != math.Float64bits(w.ScoreC) ||
			math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			t.Fatalf("%s: entity %d differs:\n got %+v\nwant %+v", where, i, g, w)
		}
	}
}

// TestParseCacheRefinementInvalidatedByAdd pins the refinement memo's key:
// two runs share one ParseCache (and one matcher cache) with a Space.Add
// between them that moves a seed's phrase vector. The second run must score
// exactly like an uncached run on the changed space — and at least one
// (phrase, matched seed) pair the two runs share must have changed its
// semantic score, so serving the first run's memo would have been caught.
func TestParseCacheRefinementInvalidatedByAdd(t *testing.T) {
	table, space, docs := fig1Table(), fig1Space(), fig1Docs()
	cfg := Config{Tau: 0.6, TuneCache: matcher.NewCache(), ParseCache: NewParseCache()}
	before, err := Run(table, space, docs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// "nervous" is a modifier of the Anatomy seed "nervous system": moving
	// it within the anatomy cluster changes the seed's phrase vector, and
	// with it every Anatomy entity's semantic score, but not the seed head.
	space.Add("nervous", embed.Blend(embed.HashVector("centroid:anatomy"), embed.HashVector("noise:nervous-moved"), 0.58))
	after, err := Run(table, space, docs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(table, space, docs, Config{Tau: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	checkSameEntities(t, "after Add", after.AllEntities(), plain.AllEntities())
	moved := false
	for _, a := range after.AllEntities() {
		for _, b := range before.AllEntities() {
			if a.Phrase == b.Phrase && a.Matched == b.Matched && a.ScoreS != b.ScoreS {
				moved = true
			}
		}
	}
	if !moved {
		t.Fatal("the Add changed no shared pair's semantic score; the invalidation is untested")
	}
}

func TestPipelineProvenance(t *testing.T) {
	res, err := Run(fig1Table(), fig1Space(), fig1Docs(), Config{Tau: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.AllEntities() {
		if e.Doc != "sample" {
			t.Errorf("entity %q lost provenance: doc=%q", e.Phrase, e.Doc)
		}
	}
}

func TestResultReport(t *testing.T) {
	res, err := Run(fig1Table(), fig1Space(), fig1Docs(), Config{Tau: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := res.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal([]byte(buf.String()), &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(rep.Entities) != res.Stats.Entities {
		t.Errorf("report entities = %d, stats say %d", len(rep.Entities), res.Stats.Entities)
	}
	if rep.Stats.Filled != res.Stats.Filled || rep.Stats.Documents != 1 {
		t.Errorf("report stats mismatch: %+v", rep.Stats)
	}
	for _, e := range rep.Entities {
		if e.Subject == "" || e.Concept == "" || e.Phrase == "" || e.Doc == "" {
			t.Errorf("incomplete report entity: %+v", e)
		}
		if e.Score < 0 || e.Score > 1 {
			t.Errorf("score out of range: %+v", e)
		}
	}
}

// vetoAll rejects everything; used to check validator plumbing.
type vetoAll struct{}

func (vetoAll) Validate(string, schema.Concept) bool { return false }

func TestPipelineValidatorVeto(t *testing.T) {
	res, err := Run(fig1Table(), fig1Space(), fig1Docs(), Config{Tau: 0.6, Validator: vetoAll{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Entities != 0 || res.Stats.Filled != 0 {
		t.Errorf("validator veto ignored: %+v", res.Stats)
	}
}
