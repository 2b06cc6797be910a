package embed

import "sort"

// ThresholdIndex answers threshold-neighborhood queries over a snapshot of a
// Space's vocabulary with *exactly* the same results as Space.Neighbors —
// same words, same similarities, same order — at a fraction of the cost.
//
// A query is one sketch-bound sweep of the vocabulary Matrix: rows whose
// conservative cosine upper bound falls short of τ are skipped, and every
// survivor is verified by true cosine. Because the bound is conservative and
// survivors are re-scored exactly, the accepted set is provably identical to
// a brute-force sweep. The index is immutable and safe for concurrent
// queries.
type ThresholdIndex struct {
	words []string // sorted vocabulary; row i of mat
	basis *Basis
	mat   *Matrix
}

// NewThresholdIndex snapshots the space's current vocabulary. Mutating the
// space afterwards does not update the index (Space.Index handles
// invalidation for the lazily built shared instance).
func NewThresholdIndex(s *Space) *ThresholdIndex {
	words := s.Words()
	vecs := make([]Vector, len(words))
	for i, w := range words {
		vecs[i] = s.Lookup(w)
	}
	basis := NewBasis(vecs)
	return &ThresholdIndex{words: words, basis: basis, mat: NewMatrix(basis, vecs)}
}

// Basis returns the pruning basis the index's matrix was built with, so
// callers can build Matrices and Queries that share it.
func (idx *ThresholdIndex) Basis() *Basis { return idx.basis }

// Len returns the number of indexed words.
func (idx *ThresholdIndex) Len() int { return len(idx.words) }

// Neighbors returns all indexed words with cosine similarity ≥ tau to the
// query, ordered by decreasing similarity with ties broken alphabetically —
// bit-for-bit identical to Space.Neighbors on the snapshotted vocabulary.
func (idx *ThresholdIndex) Neighbors(query Vector, tau float64) []Neighbor {
	q := idx.basis.Query(&query)
	return idx.NeighborsQuery(&q, tau)
}

// NeighborsQuery is Neighbors for a precomputed query (which must have been
// built by this index's Basis).
func (idx *ThresholdIndex) NeighborsQuery(q *Query, tau float64) []Neighbor {
	var out []Neighbor
	idx.mat.EachAtLeast(q, tau, func(i int, sim float64) {
		out = append(out, Neighbor{Word: idx.words[i], Sim: sim})
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sim != out[j].Sim {
			return out[i].Sim > out[j].Sim
		}
		return out[i].Word < out[j].Word
	})
	return out
}

// Query precomputes the sweep view of *v under the index's basis.
func (idx *ThresholdIndex) Query(v *Vector) Query { return idx.basis.Query(v) }
