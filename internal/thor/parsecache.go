package thor

import (
	"strings"
	"sync"

	"thor/internal/cow"
	"thor/internal/embed"
	"thor/internal/phrase"
	"thor/internal/pos"
	"thor/internal/segment"
	"thor/internal/text"
)

// parseKey identifies one sentence analysis: a fingerprint of the analysis
// configuration (tagger lexicon, chunking mode) plus the sentence's token
// stream. Tagging, parsing and extraction are pure functions of the two.
type parseKey struct {
	cfg  uint64
	sent string
}

// docKey identifies one document analysis: a fingerprint covering everything
// document analysis depends on besides the document body — the segmenter's
// subject instances plus the sentence-analysis configuration — together with
// the document's default subject and its raw text. Segmentation and phrase
// extraction are pure functions of these inputs (the document's Name is
// provenance only).
type docKey struct {
	cfg     uint64
	subject string
	text    string
}

// docEntry is one cached document analysis: the sentence/subject assignments
// and, aligned with them, each sentence's extracted noun phrases (nil for
// sentences without an attributed subject, which are never analyzed). Both
// slices are immutable once stored.
type docEntry struct {
	assignments []segment.Assignment
	phrases     [][]phrase.Phrase
}

// ParseCache shares deterministic text-analysis results — POS tags,
// dependency parses and the extracted noun phrases — across pipeline runs.
// A threshold sweep re-reads the same documents once per τ, but the parses
// do not depend on τ at all; with a shared cache only the first run pays
// for them. Cached phrase slices are returned to every run: they are
// immutable by contract. Safe for concurrent use.
//
// The cache has two granularities. The sentence level (m) keys on the token
// stream and serves any pipeline whose analysis configuration matches, even
// across different tables. The document level (docs) additionally covers
// segmentation — keyed on the subject set, the default subject and the raw
// text — so a warm document skips straight from body to phrase lists with a
// single lookup and no per-sentence key building; the serving layer's warm
// fill path leans on this for its allocation budget.
//
// The cache also holds the refinement scores of every (phrase, matched
// seed) pair, which depend on neither τ nor the table: Jaccard and Gestalt
// read only the two strings, and the semantic score reads the embedding
// space. They are keyed by the space's threshold index, the identity
// matcher.Cache keys on, so a Space.Add — which replaces the index — starts
// a fresh memo instead of serving stale scores.
type ParseCache struct {
	m    *cow.Map[parseKey, []phrase.Phrase]
	docs *cow.Map[docKey, *docEntry]

	refineMu sync.Mutex
	refine   map[*embed.ThresholdIndex]*cow.Map[[2]string, [3]float64]
}

// NewParseCache returns an empty parse cache.
func NewParseCache() *ParseCache {
	return &ParseCache{
		m:      cow.New[parseKey, []phrase.Phrase](),
		docs:   cow.New[docKey, *docEntry](),
		refine: make(map[*embed.ThresholdIndex]*cow.Map[[2]string, [3]float64]),
	}
}

// refineFor returns the refinement-score memo for one vocabulary snapshot,
// creating it on first request.
func (c *ParseCache) refineFor(index *embed.ThresholdIndex) *cow.Map[[2]string, [3]float64] {
	c.refineMu.Lock()
	defer c.refineMu.Unlock()
	r, ok := c.refine[index]
	if !ok {
		r = cow.New[[2]string, [3]float64]()
		c.refine[index] = r
	}
	return r
}

// Len returns the number of cached sentence analyses.
func (c *ParseCache) Len() int { return c.m.Len() }

// DocLen returns the number of cached whole-document analyses.
func (c *ParseCache) DocLen() int { return c.docs.Len() }

// docFingerprint extends a parse fingerprint with the segmentation inputs:
// the segmenter's subject instances, order-sensitively (Table.Subjects is
// row order, part of the segmenter's longest-mention tie-breaking inputs).
func docFingerprint(parseFP uint64, subjects []string) uint64 {
	const prime64 = 1099511628211
	h := parseFP
	for _, s := range subjects {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		h ^= 0xff
		h *= prime64
	}
	return h ^ uint64(len(subjects))
}

// parseFingerprint content-hashes everything sentence analysis depends on
// besides the sentence itself: the tagger lexicon (order-independent XOR —
// map iteration order must not matter) and the chunking mode.
func parseFingerprint(lexicon map[string]pos.Tag, naiveChunking bool) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	if naiveChunking {
		h ^= 1
		h *= prime64
	}
	var lex uint64
	for w, t := range lexicon {
		eh := uint64(offset64)
		for i := 0; i < len(w); i++ {
			eh ^= uint64(w[i])
			eh *= prime64
		}
		eh ^= uint64(t) + 1
		eh *= prime64
		lex ^= eh
	}
	return h ^ lex ^ uint64(len(lexicon))
}

// sentenceKey serializes a sentence's token stream. Token texts determine
// kinds, tags and parses, so the key captures the full analysis input.
func sentenceKey(s text.Sentence) string {
	n := 0
	for i := range s.Tokens {
		n += len(s.Tokens[i].Text) + 1
	}
	var b strings.Builder
	b.Grow(n)
	for i := range s.Tokens {
		if i > 0 {
			b.WriteByte(0)
		}
		b.WriteString(s.Tokens[i].Text)
	}
	return b.String()
}
