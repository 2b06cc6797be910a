package matcher

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"thor/internal/datagen"
	"thor/internal/dep"
	"thor/internal/embed"
	"thor/internal/phrase"
	"thor/internal/pos"
	"thor/internal/schema"
	"thor/internal/text"
)

// This file holds the equivalence property tests: the optimized matcher —
// threshold-index retrieval, SoA matrices with sketch-bound pruning,
// floor-initialized cross-τ fit profiles, copy-on-write memos, shared seed
// clusters — must produce *bit-for-bit* the same fine-tuned clusters and the
// same Match candidates (order included) as a plain brute-force
// implementation built from CosineAt and full-vocabulary scans.

// bruteCluster is the reference fine-tuned model for one concept.
type bruteCluster struct {
	concept schema.Concept
	seeds   []Representative
	words   []Representative
}

// bruteFineTune mirrors FineTune with none of the machinery: phrase vectors
// are composed fresh, and τ-expansion is a full-vocabulary Space.Neighbors
// scan per seed head word.
func bruteFineTune(space *embed.Space, table *schema.Table, cfg Config) []*bruteCluster {
	var out []*bruteCluster
	for _, c := range table.Schema.Concepts {
		if c == table.Schema.Subject && !cfg.IncludeSubject {
			continue
		}
		cl := &bruteCluster{concept: c}
		seenWord := map[string]bool{}
		seenSeed := map[string]bool{}
		for _, inst := range table.ColumnValues(c) {
			norm := text.NormalizePhrase(inst)
			if norm == "" || seenSeed[norm] {
				continue
			}
			seenSeed[norm] = true
			vec := space.PhraseVector(strings.Fields(norm))
			if vec.Zero() {
				continue
			}
			cl.seeds = append(cl.seeds, Representative{Phrase: norm, Vector: vec, Seed: true})
			if w := headWord(strings.Fields(norm)); w != "" && !seenWord[w] {
				seenWord[w] = true
				cl.words = append(cl.words, Representative{Phrase: w, Vector: space.Lookup(w), Seed: true})
			}
		}
		if len(cl.seeds) == 0 {
			continue
		}
		if !cfg.DisableExpansion {
			sources := make([]Representative, len(cl.words))
			copy(sources, cl.words)
			for _, src := range sources {
				for _, nb := range space.Neighbors(src.Vector, cfg.Tau) {
					if seenWord[nb.Word] {
						continue
					}
					seenWord[nb.Word] = true
					cl.words = append(cl.words, Representative{
						Phrase: nb.Word,
						Vector: space.Lookup(nb.Word),
						Via:    src.Phrase,
					})
				}
			}
		}
		out = append(out, cl)
	}
	return out
}

// bruteMatch mirrors Match with plain sequential sweeps: the head fit is the
// running maximum of CosineAt over every representative word, and the best
// seed is the same strict-`>` earliest-max sweep over the seed phrases.
func bruteMatch(space *embed.Space, clusters []*bruteCluster, cfg Config, p phrase.Phrase) []Candidate {
	floor := cfg.acceptFloor()
	var cands []Candidate
	for _, sub := range phrase.Subphrases(p) {
		head := headWord(sub)
		if head == "" {
			continue
		}
		hv := space.Lookup(head)
		subText := strings.Join(sub, " ")
		for _, cl := range clusters {
			fit := -2.0
			for i := range cl.words {
				if c := embed.CosineAt(&hv, &cl.words[i].Vector); c > fit {
					fit = c
				}
			}
			if fit < floor {
				continue
			}
			cands = append(cands, Candidate{
				Phrase:  subText,
				Concept: cl.concept,
				Matched: bruteBestSeed(space, cl, subText),
				Sim:     fit,
			})
		}
	}
	if len(cands) == 0 {
		return nil
	}
	stableSortBySim(cands)
	seen := map[candKey]bool{}
	perConcept := map[schema.Concept]int{}
	kept := cands[:0]
	for _, cand := range cands {
		key := candKey{phrase: cand.Phrase, concept: cand.Concept}
		if seen[key] {
			continue
		}
		seen[key] = true
		if perConcept[cand.Concept] >= maxPerPhrase {
			continue
		}
		perConcept[cand.Concept]++
		kept = append(kept, cand)
	}
	return kept
}

func bruteBestSeed(space *embed.Space, cl *bruteCluster, subText string) string {
	sv := space.PhraseVector(strings.Fields(subText))
	bestI, best := -1, -2.0
	for i := range cl.seeds {
		if c := embed.CosineAt(&sv, &cl.seeds[i].Vector); c > best {
			best, bestI = c, i
		}
	}
	if bestI < 0 {
		return ""
	}
	return cl.seeds[bestI].Phrase
}

// corpusPhrases runs the real analysis stack (tagger with the dataset
// lexicon, dependency parse, phrase extraction) over a slice of the test
// documents, deduplicating by surface text so the brute sweeps stay cheap.
func corpusPhrases(ds *datagen.Dataset, maxDocs int) []phrase.Phrase {
	tg := pos.New()
	tg.AddLexicon(ds.Lexicon)
	docs := ds.Test.Docs
	if len(docs) > maxDocs {
		docs = docs[:maxDocs]
	}
	seen := map[string]bool{}
	var out []phrase.Phrase
	for _, d := range docs {
		for _, s := range text.SplitSentences(d.Text) {
			for _, ph := range phrase.Extract(dep.Parse(tg.Tag(s))) {
				if txt := ph.Text(); !seen[txt] {
					seen[txt] = true
					out = append(out, ph)
				}
			}
		}
	}
	return out
}

func sameRep(a, b Representative) bool {
	return a.Phrase == b.Phrase && a.Seed == b.Seed && a.Via == b.Via && a.Vector == b.Vector
}

func checkClusterEquivalence(t *testing.T, m *Matcher, ref []*bruteCluster, where string) {
	t.Helper()
	concepts := m.Concepts()
	if len(concepts) != len(ref) {
		t.Fatalf("%s: %d concepts, reference has %d", where, len(concepts), len(ref))
	}
	for i, cl := range ref {
		if concepts[i] != cl.concept {
			t.Fatalf("%s: concept[%d] = %q, reference %q", where, i, concepts[i], cl.concept)
		}
		seeds, words := m.Seeds(cl.concept), m.Representatives(cl.concept)
		if len(seeds) != len(cl.seeds) || len(words) != len(cl.words) {
			t.Fatalf("%s %s: %d seeds / %d words, reference %d / %d",
				where, cl.concept, len(seeds), len(words), len(cl.seeds), len(cl.words))
		}
		for j := range seeds {
			if !sameRep(seeds[j], cl.seeds[j]) {
				t.Fatalf("%s %s: seed[%d] = %+v, reference %+v", where, cl.concept, j, seeds[j], cl.seeds[j])
			}
		}
		for j := range words {
			if !sameRep(words[j], cl.words[j]) {
				t.Fatalf("%s %s: word[%d] = %q via %q, reference %q via %q",
					where, cl.concept, j, words[j].Phrase, words[j].Via, cl.words[j].Phrase, cl.words[j].Via)
			}
		}
	}
}

func checkMatchEquivalence(t *testing.T, got, want []Candidate, where string, p phrase.Phrase) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s %q: %d candidates, reference %d\n got: %+v\nwant: %+v",
			where, p.Text(), len(got), len(want), got, want)
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Phrase != w.Phrase || g.Concept != w.Concept || g.Matched != w.Matched ||
			math.Float64bits(g.Sim) != math.Float64bits(w.Sim) {
			t.Fatalf("%s %q: candidate[%d] = %+v, reference %+v", where, p.Text(), i, g, w)
		}
	}
}

// equivalenceTaus is every τ the experiments run at.
var equivalenceTaus = []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// runEquivalence sweeps every τ with τ-expansion on and off (the seeds-only
// ablation fits through a heads-only profile), each through a private and
// a sweep-shared cache, against the brute-force reference.
func runEquivalence(t *testing.T, ds *datagen.Dataset, maxDocs int) {
	phrases := corpusPhrases(ds, maxDocs)
	if len(phrases) < 20 {
		t.Fatalf("only %d corpus phrases — corpus too small to be meaningful", len(phrases))
	}
	cache := NewCache()
	for _, seedsOnly := range []bool{false, true} {
		for _, tau := range equivalenceTaus {
			cfg := Config{Tau: tau, DisableExpansion: seedsOnly}
			where := fmt.Sprintf("τ=%.1f seeds-only=%v", tau, seedsOnly)
			ref := bruteFineTune(ds.Space, ds.Table, cfg)
			m, err := FineTune(ds.Space, ds.Table, cfg)
			if err != nil {
				t.Fatalf("%s: FineTune: %v", where, err)
			}
			cached, err := cache.FineTune(ds.Space, ds.Table, cfg)
			if err != nil {
				t.Fatalf("%s: Cache.FineTune: %v", where, err)
			}
			checkClusterEquivalence(t, m, ref, where)
			checkClusterEquivalence(t, cached, ref, where)
			ctx := m.NewContext()
			for _, p := range phrases {
				want := bruteMatch(ds.Space, ref, cfg, p)
				checkMatchEquivalence(t, ctx.Match(p), want, where, p)
				// Pooled-context path, with every memo now warm.
				checkMatchEquivalence(t, m.Match(p), want, where, p)
				// The cache-shared matcher (shared seed clusters and memos
				// across the τ sweep) must agree too.
				checkMatchEquivalence(t, cached.Match(p), want, where, p)
			}
		}
	}
}

// TestEquivalenceDisease asserts, on the Disease A-Z dataset, that indexed
// τ-expansion and pruned head-fit sweeps reproduce the brute-force matcher
// exactly — candidates, similarities and ordering included — at every τ the
// experiments use, with and without expansion.
func TestEquivalenceDisease(t *testing.T) {
	if testing.Short() {
		t.Skip("brute-force sweeps are slow")
	}
	runEquivalence(t, datagen.Disease(datagen.DiseaseSeed), 6)
}

// TestEquivalenceResume is the same property on the Résumé dataset.
func TestEquivalenceResume(t *testing.T) {
	if testing.Short() {
		t.Skip("brute-force sweeps are slow")
	}
	runEquivalence(t, datagen.Resume(datagen.ResumeSeed), 6)
}
