// Package embed implements the static word-embedding substrate THOR's
// semantic matcher runs on.
//
// The paper uses spaCy's pre-trained English vectors (OntoNotes 5 +
// Wikipedia). Those are unavailable offline, so this package provides a
// deterministic synthetic embedding space with the single property the
// matcher depends on: instances of the same concept cluster together, while
// unrelated words are far apart. Vocabularies are placed around concept
// centroids by the dataset generator; unknown words fall back to subword
// (character n-gram) hash vectors so that morphologically related words
// ("cancer" / "cancerous") remain close.
//
// # Performance
//
// The matcher's sweeps run on Matrix slabs screened by a sketch bound (see
// soa.go). Every kernel that scores several dot products at once — cosine4
// over four rows, the four-row bound behind ArgMax, PrefixMaxRises and
// EachAtLeast, the four-direction sketch, and NewBasis deflating four
// residual rows per pass on every core — keeps one accumulator per product
// over ascending components. Interleaving the chains only lets the
// processor overlap their adds, so each value is bit-identical to the
// one-chain loop; the kernel tests in soa_test.go keep those loops as
// references, and the skip decisions of every sweep are unchanged.
//
// Space.PhraseVectorCached returns a pointer into the phrase-vector memo:
// hits, snapshot merges and concurrent misses (which share one stored
// vector through cow.Map.GetOrCompute) copy 8 bytes, not a 1 KB Vector.
// The shared vector is read-only. Basis.Query and ThresholdIndex.Query take
// vectors by pointer for the same reason.
package embed
