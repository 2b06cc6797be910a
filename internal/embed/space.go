package embed

import (
	"sort"
	"strings"
	"sync"

	"thor/internal/cow"
	"thor/internal/text"
)

// Space is a vocabulary of word vectors with similarity queries. It plays the
// role of the pre-trained embedding table: the dataset generator populates it
// with concept-clustered vocabularies, and the matcher queries it.
//
// A Space is safe for concurrent readers once construction is complete.
type Space struct {
	vecs map[string]Vector
	// stems indexes vocabulary words by Porter stem for out-of-vocabulary
	// resolution; built lazily by stemLookup under stemMu so concurrent
	// readers stay safe.
	stemMu sync.Mutex
	stems  map[string]string
	// subwordOOV controls whether Lookup falls back to stem resolution and
	// subword hashing for unknown words (on by default).
	subwordOOV bool
	// phrases memoizes PhraseVectorCached results (read-mostly: the matcher
	// and refinement stages embed the same normalized phrases millions of
	// times per pipeline). Invalidated by Add alongside the stem index.
	phrases *cow.Map[string, Vector]
	// index is the lazily built exact threshold index over the vocabulary,
	// shared by all queriers; invalidated by Add.
	idxMu sync.Mutex
	index *ThresholdIndex
}

// NewSpace returns an empty Space with subword fallback enabled.
func NewSpace() *Space {
	return &Space{
		vecs:       make(map[string]Vector),
		subwordOOV: true,
		phrases:    cow.New[string, Vector](),
	}
}

// SetSubwordFallback toggles the OOV subword fallback. Disabling it makes
// Lookup return the zero vector for unknown words, which is useful in
// ablation experiments.
func (s *Space) SetSubwordFallback(on bool) { s.subwordOOV = on }

// Add inserts (or replaces) the vector for a word. Words are stored
// lower-cased. Adding invalidates the lazy stem index, the phrase-vector
// memo, and the threshold index.
func (s *Space) Add(word string, v Vector) {
	s.vecs[strings.ToLower(word)] = v
	s.stemMu.Lock()
	s.stems = nil
	s.stemMu.Unlock()
	s.phrases.Seed(nil)
	s.idxMu.Lock()
	s.index = nil
	s.idxMu.Unlock()
}

// Len returns the vocabulary size.
func (s *Space) Len() int { return len(s.vecs) }

// Contains reports whether the word is in the stored vocabulary (ignoring
// the subword fallback).
func (s *Space) Contains(word string) bool {
	_, ok := s.vecs[strings.ToLower(word)]
	return ok
}

// Lookup returns the vector for a word. Unknown words fall back, in order,
// to (1) a stored vocabulary word sharing their Porter stem ("cancerous" →
// "cancer") and (2) subword hashing, when the fallback is enabled; otherwise
// to the zero vector.
func (s *Space) Lookup(word string) Vector {
	w := strings.ToLower(word)
	if v, ok := s.vecs[w]; ok {
		return v
	}
	if !s.subwordOOV {
		return Vector{}
	}
	if v, ok := s.stemLookup(w); ok {
		return v
	}
	return SubwordVector(w)
}

// stemLookup resolves an unknown word via the stem index (built lazily on
// first out-of-vocabulary miss).
func (s *Space) stemLookup(w string) (Vector, bool) {
	s.stemMu.Lock()
	defer s.stemMu.Unlock()
	if s.stems == nil {
		s.stems = make(map[string]string, len(s.vecs))
		// Deterministic index: among words sharing a stem, the
		// lexicographically smallest wins.
		for _, word := range s.Words() {
			st := text.Stem(word)
			if _, taken := s.stems[st]; !taken {
				s.stems[st] = word
			}
		}
	}
	if owner, ok := s.stems[text.Stem(w)]; ok {
		return s.vecs[owner], true
	}
	return Vector{}, false
}

// PhraseVector embeds a multi-word phrase as the normalized mean of its word
// vectors, the standard static-embedding composition. Empty phrases embed to
// the zero vector.
func (s *Space) PhraseVector(words []string) Vector {
	var sum Vector
	n := 0
	for _, w := range words {
		v := s.Lookup(w)
		if v.Zero() {
			continue
		}
		sum = sum.Add(v)
		n++
	}
	if n == 0 {
		return Vector{}
	}
	return sum.Normalize()
}

// PhraseVectorCached returns PhraseVector of the space-separated phrase,
// memoizing the result. The memo is read-mostly (a single atomic load on
// hits) and is invalidated whenever the vocabulary changes.
func (s *Space) PhraseVectorCached(phrase string) Vector {
	if v, ok := s.phrases.Get(phrase); ok {
		return v
	}
	v := s.PhraseVector(strings.Fields(phrase))
	s.phrases.Put(phrase, v)
	return v
}

// Similarity returns the cosine similarity between the embeddings of two
// phrases given as space-separated normalized strings.
func (s *Space) Similarity(a, b string) float64 {
	va, vb := s.PhraseVectorCached(a), s.PhraseVectorCached(b)
	return Cosine(va, vb)
}

// Neighbor is a vocabulary word with its similarity to a query.
type Neighbor struct {
	// Word is the vocabulary entry.
	Word string
	// Sim is its cosine similarity to the query.
	Sim float64
}

// Neighbors returns all vocabulary words whose cosine similarity to the
// query vector is at least tau, ordered by decreasing similarity (ties broken
// alphabetically so results are deterministic).
func (s *Space) Neighbors(query Vector, tau float64) []Neighbor {
	var out []Neighbor
	for w, v := range s.vecs {
		v := v
		if sim := CosineAt(&query, &v); sim >= tau {
			out = append(out, Neighbor{Word: w, Sim: sim})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sim != out[j].Sim {
			return out[i].Sim > out[j].Sim
		}
		return out[i].Word < out[j].Word
	})
	return out
}

// Index returns the exact threshold index over the current vocabulary,
// building it on first use and rebuilding after any Add. All callers share
// one instance, so the (one-time) construction cost is amortized across the
// matcher's fine-tunes and τ-sweep experiments.
func (s *Space) Index() *ThresholdIndex {
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	if s.index == nil {
		s.index = NewThresholdIndex(s)
	}
	return s.index
}

// Words returns the vocabulary in sorted order. Intended for tests and
// serialization.
func (s *Space) Words() []string {
	out := make([]string, 0, len(s.vecs))
	for w := range s.vecs {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}
