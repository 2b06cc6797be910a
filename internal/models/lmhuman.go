package models

import (
	"math"
	"sort"
	"strings"

	"thor/internal/ahocorasick"
	"thor/internal/cow"
	"thor/internal/embed"
	"thor/internal/eval"
	"thor/internal/pos"
	"thor/internal/schema"
	"thor/internal/segment"
	"thor/internal/text"
)

// LMHuman simulates the paper's best-case comparator: a language model
// fine-tuned on manually annotated, contextually rich text. The simulator is
// a genuine supervised learner with two trained components:
//
//   - an entity memory — the annotated mentions, indexed by surface form and
//     head word — whose coverage grows with annotation volume, driving the
//     Table X scaling curve, and
//   - a context model — the vocabulary of sentences that carried annotations
//     during training. Sentences resembling unannotated contexts are
//     rejected, which is why the real LM-Human keeps precision high (0.83)
//     where weakly supervised systems pick up spurious mentions.
//
// Its recall ceiling reproduces the paper's observation that even the ideal
// fine-tuned LM misses a sizable share of mentions (R=0.56): each surface
// form has a fixed, deterministic recognition outcome.
type LMHuman struct {
	ext        *extractor
	space      *embed.Space
	examples   []trainExample
	headIndex  map[string][]int
	posContext map[string]bool
	threshold  float64
	// recognition is the per-surface-form recognition probability realized
	// deterministically by hash.
	recognition float64
	// exampleMat holds the example vectors as a pruned-sweep matrix (rows
	// parallel to examples), replacing the brute-force nearest-neighbor scan
	// of the similarity path with a bit-identical bounded sweep.
	exampleMat *embed.Matrix
	// decisions memoizes the per-surface-form outcome (recognition draw and
	// classification), both deterministic functions of the phrase.
	decisions *cow.Map[string, lmhDecision]
}

// lmhDecision is the memoized per-phrase outcome: whether the surface form
// clears the recognition ceiling and, if so, how classify labels it.
type lmhDecision struct {
	recognized bool
	concept    schema.Concept
	ok         bool
}

type trainExample struct {
	phrase  string
	concept schema.Concept
	vec     embed.Vector
}

// NewLMHuman "fine-tunes" the simulator on annotated training mentions and
// their source documents (used to learn the positive-context vocabulary).
// Passing a subset of the training data reproduces the Table X
// annotation-volume sweep.
func NewLMHuman(train []eval.Mention, trainDocs []segment.Document, space *embed.Space,
	subjects []string, lexicon map[string]pos.Tag) *LMHuman {
	m := &LMHuman{
		ext:         newExtractor(subjects, lexicon),
		space:       space,
		headIndex:   make(map[string][]int),
		posContext:  make(map[string]bool),
		threshold:   0.85,
		recognition: 0.66,
	}
	seen := make(map[string]bool)
	var patterns []string
	bySubject := make(map[string]map[string]bool) // subject -> gold phrases
	for _, g := range train {
		g = g.Normalize()
		if g.Phrase == "" {
			continue
		}
		if bySubject[g.Subject] == nil {
			bySubject[g.Subject] = make(map[string]bool)
		}
		bySubject[g.Subject][g.Phrase] = true
		key := string(g.Concept) + "\x00" + g.Phrase
		if seen[key] {
			continue
		}
		seen[key] = true
		vec := space.PhraseVectorCached(g.Phrase)
		if vec.Zero() {
			continue
		}
		idx := len(m.examples)
		m.examples = append(m.examples, trainExample{phrase: g.Phrase, concept: g.Concept, vec: *vec})
		patterns = append(patterns, g.Phrase)
		if h := headOf(g.Phrase); h != "" {
			m.headIndex[h] = append(m.headIndex[h], idx)
		}
	}
	m.learnContexts(trainDocs, patterns, bySubject)
	// Recognition reliability follows a power-law learning curve in the
	// number of distinct annotated examples — the Table X behavior: a model
	// fine-tuned on a single subject's documents recovers only a fraction
	// of the mentions its fully trained counterpart does. The exponent and
	// reference size are calibrated so a fully annotated Disease A-Z corpus
	// reaches the paper's LM-Human operating point.
	n := float64(len(m.examples))
	q := 0.66 * math.Pow(n/1900, 0.18)
	if q > 0.72 {
		q = 0.72
	}
	m.recognition = q
	vecs := make([]embed.Vector, len(m.examples))
	for i := range m.examples {
		vecs[i] = m.examples[i].vec
	}
	m.exampleMat = embed.NewMatrix(embed.NewBasis(vecs), vecs)
	m.decisions = cow.New[string, lmhDecision]()
	return m
}

// learnContexts scans the training documents: every sentence containing a
// mention that is annotated *for that document's subject* contributes its
// content words to the positive-context vocabulary (the BIO tagger's learned
// notion of "a sentence that carries entities"). Sentences that merely
// mention a phrase annotated elsewhere — the trap contexts — stay negative.
func (m *LMHuman) learnContexts(docs []segment.Document, patterns []string, bySubject map[string]map[string]bool) {
	if len(docs) == 0 || len(patterns) == 0 {
		return
	}
	auto := ahocorasick.NewAutomaton(patterns)
	// Segment the training documents by their own subjects, which need not
	// overlap with the evaluation subjects.
	trainSubjects := make([]string, 0, len(bySubject))
	for s := range bySubject {
		trainSubjects = append(trainSubjects, s)
	}
	sort.Strings(trainSubjects)
	trainSeg := segment.New(trainSubjects)
	entityWords := make(map[string]bool)
	var matches []ahocorasick.Match
	for _, doc := range docs {
		for _, asg := range trainSeg.Segment(doc) {
			gold := bySubject[strings.ToLower(asg.Subject)]
			if gold == nil {
				continue
			}
			sent := asg.Sentence
			// The automaton lowercases internally (ASCII-exactly, matching
			// the normalized gold phrases), so the raw span is searched
			// without a per-sentence lowered copy.
			span := doc.Text[sent.Start:sent.End]
			annotated := false
			matches = auto.AppendWholeWords(matches[:0], span)
			for _, match := range matches {
				if !gold[auto.Pattern(match.Pattern)] {
					continue
				}
				if !annotated {
					annotated = true
					clear(entityWords)
				}
				for _, w := range strings.Fields(auto.Pattern(match.Pattern)) {
					entityWords[w] = true
				}
			}
			if !annotated {
				continue
			}
			// Only the sentence's *context* words count — the entity words
			// themselves belong to the mention, not to what the tagger
			// learns about entity-bearing sentences.
			for _, w := range sent.Words() {
				if !text.IsStopword(w) && !entityWords[w] {
					m.posContext[w] = true
				}
			}
		}
	}
}

// Name implements Model.
func (m *LMHuman) Name() string { return "LM-Human" }

// TrainingSize returns the number of distinct training examples retained.
func (m *LMHuman) TrainingSize() int { return len(m.examples) }

// Extract labels recognized phrases that occur in positive-looking contexts.
func (m *LMHuman) Extract(docs []segment.Document) []eval.Mention {
	out := newMentionSet()
	var hits []string
	for _, doc := range docs {
		for _, sp := range m.ext.scan(doc) {
			hits = m.positiveHits(sp.Content, hits[:0])
			for _, ph := range sp.Phrases {
				norm := text.NormalizePhrase(ph.Text())
				if norm == "" {
					continue
				}
				d := m.decide(norm)
				// Recognition ceiling: a fixed fraction of surface forms is
				// simply never recovered, as the paper observes even for
				// the fully supervised model.
				if !d.recognized {
					continue
				}
				if !m.contextLooksPositiveHits(hits, norm) {
					continue
				}
				if d.ok {
					out.add(eval.Mention{Subject: sp.Subject, Concept: d.concept, Phrase: norm})
				}
			}
		}
	}
	return out.mentions()
}

// decide returns the memoized phrase-level outcome: the deterministic
// recognition draw plus the classification. Classification is computed even
// for phrases whose contexts all turn out negative — classify is a pure
// function, so this changes no result, and memoizing the combined outcome
// keeps the per-occurrence cost to one map hit.
func (m *LMHuman) decide(norm string) lmhDecision {
	if d, ok := m.decisions.Get(norm); ok {
		return d
	}
	d := lmhDecision{recognized: hashFrac("lmh-recognize:"+norm) <= m.recognition}
	if d.recognized {
		d.concept, d.ok = m.classify(norm)
	}
	m.decisions.Put(norm, d)
	return d
}

// positiveHits collects the sentence's content words that can satisfy the
// positive-context test for some phrase: those present in the learned
// positive-context vocabulary. It takes the scan's precomputed normalized
// non-stopword words and is computed once per sentence instead of once per
// candidate phrase.
func (m *LMHuman) positiveHits(content []string, buf []string) []string {
	if len(m.posContext) == 0 {
		return buf
	}
	for _, w := range content {
		if m.posContext[w] {
			buf = append(buf, w)
		}
	}
	return buf
}

// contextLooksPositiveHits checks that the sentence shares at least one
// content word outside the candidate phrase with the learned positive
// contexts, given the sentence's precomputed positive words.
func (m *LMHuman) contextLooksPositiveHits(hits []string, phrase string) bool {
	if len(m.posContext) == 0 {
		return true // degenerate training set: no context model
	}
	for _, w := range hits {
		if !phraseHasWord(phrase, w) {
			return true
		}
	}
	return false
}

// phraseHasWord reports whether w occurs as a whole word of the normalized
// phrase. Normalized phrases are single-space joined, so checking space
// boundaries is exactly word-set membership — without allocating the set.
func phraseHasWord(phrase, w string) bool {
	for i := 0; ; {
		j := strings.Index(phrase[i:], w)
		if j < 0 {
			return false
		}
		j += i
		if (j == 0 || phrase[j-1] == ' ') && (j+len(w) == len(phrase) || phrase[j+len(w)] == ' ') {
			return true
		}
		i = j + 1
	}
}

func (m *LMHuman) classify(phrase string) (schema.Concept, bool) {
	// Exact path: an annotated example with the same head word. Exact
	// surface matches win outright; otherwise the head's majority concept
	// across the annotations decides.
	if idxs, ok := m.headIndex[headOf(phrase)]; ok {
		votes := make(map[schema.Concept]int)
		for _, i := range idxs {
			if m.examples[i].phrase == phrase {
				return m.examples[i].concept, true
			}
			votes[m.examples[i].concept]++
		}
		best, bestN := schema.Concept(""), 0
		for c, n := range votes {
			if n > bestN || (n == bestN && c < best) {
				best, bestN = c, n
			}
		}
		return best, true
	}
	// Similarity path: conservative nearest neighbor. The bounded ArgMax
	// sweep reproduces the brute-force scan exactly: cosines are summed in
	// the same order and only examples strictly above the threshold can win,
	// earliest maximum first.
	vec := m.space.PhraseVectorCached(phrase)
	if vec.Zero() {
		return "", false
	}
	q := m.exampleMat.Basis().Query(vec)
	if i, _ := m.exampleMat.ArgMax(&q, m.threshold); i >= 0 {
		c := m.examples[i].concept
		return c, c != ""
	}
	return "", false
}

// ContextKnown reports whether the word is in the learned positive-context
// vocabulary. Exposed for diagnostics and tests.
func (m *LMHuman) ContextKnown(word string) bool { return m.posContext[word] }

// SetRecognition overrides the per-surface-form recognition probability
// (default 0.66). Exposed for experiments and tests.
func (m *LMHuman) SetRecognition(q float64) {
	m.recognition = q
	m.decisions.Seed(nil) // memoized decisions depend on the old ceiling
}
