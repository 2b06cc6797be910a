package thor

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"thor/internal/cow"
	"thor/internal/embed"
	"thor/internal/phrase"
	"thor/internal/pos"
	"thor/internal/text"
)

// parseKey identifies one sentence analysis: a fingerprint of the analysis
// configuration (tagger lexicon, chunking mode) plus the sentence's token
// stream. Tagging, parsing and extraction are pure functions of the two.
type parseKey struct {
	cfg  uint64
	sent string
}

// docKey identifies one document analysis within a document group: the
// document's default subject and its raw text. The group fixes everything
// else segmentation and phrase extraction depend on (the document's Name is
// provenance only).
type docKey struct {
	subject string
	text    string
}

// docSentence is what a warm fill reads of one analysed sentence: the
// subject it was attributed to ("" when none) and its noun phrases (nil for
// sentences without a subject, which are never analysed). The phrase slice
// is the sentence level's own, so a document analysed again under another
// subject set costs only these headers. Immutable once stored.
type docSentence struct {
	subject string
	phrases []phrase.Phrase
}

// docGroup holds the document analyses made under one subject set, keyed by
// docFingerprint. A pipeline takes its group at New and keeps it; the cache
// holds only the newest group, so a group whose subject set is gone lives
// only as long as a pipeline that took it.
type docGroup struct {
	fp   uint64
	docs *cow.Map[docKey, []docSentence]
	// alive is finalized when the group is collected. It is an allocation
	// of its own, so the finalizer holds back only it for a collection
	// cycle, not the group's entries.
	alive *groupAlive
}

// groupAlive decrements the cache's live-group count when its group is
// collected.
type groupAlive struct{ live *atomic.Int64 }

// ParseCache shares deterministic text-analysis results — POS tags,
// dependency parses and the extracted noun phrases — across pipeline runs.
// A threshold sweep re-reads the same documents once per τ, but the parses
// do not depend on τ at all; with a shared cache only the first run pays
// for them. Cached phrase slices are returned to every run: they are
// immutable by contract. Safe for concurrent use.
//
// The cache has two granularities. The sentence level (m) keys on the token
// stream and serves any pipeline whose analysis configuration matches, even
// across different tables. The document level additionally covers
// segmentation: one document group per subject set (see docGroup), keyed
// within it on the default subject and the raw text, so a warm document
// skips straight from body to phrase lists with a single lookup and no
// per-sentence key building; the serving layer's warm fill path leans on
// this for its allocation budget. A document entry keeps each sentence's
// subject and phrase list, not its tokens.
//
// The cache also holds the refinement scores of every (phrase, matched
// seed) pair, which depend on neither τ nor the table: Jaccard and Gestalt
// read only the two strings, and the semantic score reads the embedding
// space. They are keyed by the space's threshold index, the identity
// matcher.Cache keys on, so a Space.Add — which replaces the index — starts
// a fresh memo instead of serving stale scores.
type ParseCache struct {
	m *cow.Map[parseKey, []phrase.Phrase]

	groupMu sync.Mutex
	group   *docGroup
	// liveGroups counts the document groups not yet collected: the cached
	// one plus those superseded groups a pipeline still holds. It is
	// allocated apart from the cache, so the finalizer that decrements it
	// keeps neither the cache nor a group reachable.
	liveGroups *atomic.Int64

	refineMu sync.Mutex
	refine   map[*embed.ThresholdIndex]*cow.Map[[2]string, [3]float64]
}

// NewParseCache returns an empty parse cache.
func NewParseCache() *ParseCache {
	return &ParseCache{
		m:          cow.New[parseKey, []phrase.Phrase](),
		liveGroups: new(atomic.Int64),
		refine:     make(map[*embed.ThresholdIndex]*cow.Map[[2]string, [3]float64]),
	}
}

// docGroupFor returns the document group for a subject-set fingerprint: the
// cached group when its fingerprint matches, otherwise a new empty group
// that replaces it in the cache.
func (c *ParseCache) docGroupFor(fp uint64) *docGroup {
	c.groupMu.Lock()
	defer c.groupMu.Unlock()
	if g := c.group; g != nil && g.fp == fp {
		return g
	}
	g := &docGroup{fp: fp, docs: cow.New[docKey, []docSentence](), alive: &groupAlive{live: c.liveGroups}}
	c.liveGroups.Add(1)
	runtime.SetFinalizer(g.alive, func(a *groupAlive) { a.live.Add(-1) })
	c.group = g
	return g
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

// DocLen returns the number of cached whole-document analyses: those of
// the cached (newest) document group.
func (c *ParseCache) DocLen() int {
	c.groupMu.Lock()
	g := c.group
	c.groupMu.Unlock()
	if g == nil {
		return 0
	}
	return g.docs.Len()
}

// Groups returns the number of document groups still in memory as of the
// last garbage collection: the cached group plus superseded ones that some
// pipeline still holds.
func (c *ParseCache) Groups() int { return int(c.liveGroups.Load()) }

// RefineLen returns the number of memoized refinement-score pairs, summed
// over every vocabulary snapshot.
func (c *ParseCache) RefineLen() int {
	c.refineMu.Lock()
	defer c.refineMu.Unlock()
	n := 0
	for _, r := range c.refine {
		n += r.Len()
	}
	return n
}

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
