package embed

import (
	"sort"
	"sync"
)

// ThresholdIndex answers threshold-neighborhood queries over a snapshot of a
// Space's vocabulary with *exactly* the same results as Space.Neighbors —
// same words, same similarities, same order — at a fraction of the cost.
//
// It composes the two acceleration structures in this package:
//
//   - the banded random-hyperplane LSHIndex supplies, per query, the bucket
//     candidates that are likely neighbors; they are scored directly by true
//     cosine (prune-then-verify: LSH only *proposes*, the exact cosine
//     decides);
//   - the remaining vocabulary — which LSH alone would silently drop,
//     making results approximate — is screened by the Matrix's conservative
//     sketch bound: entries whose cosine upper bound falls short of τ are
//     skipped, and every survivor is verified by true cosine.
//
// Because the bound is conservative and survivors are re-scored exactly, the
// accepted set is provably identical to a brute-force sweep; the LSH pass
// merely shifts the likely hits onto the cheap path. The index is immutable
// and safe for concurrent queries.
type ThresholdIndex struct {
	words []string // sorted vocabulary; row i of mat and entry i of lsh
	basis *Basis
	mat   *Matrix
	lsh   *LSHIndex
	// planes holds the LSH hyperplanes flattened to float64 ([table][bit]
	// rows of Dim), so a query signature is k·l sign-of-dot sweeps instead
	// of k·l full cosines. sign(dot) == sign(cosine) for nonzero vectors, so
	// bucket lookups agree with the LSHIndex's stored signatures.
	planes  []float64
	scratch sync.Pool // *idxScratch
}

type idxScratch struct {
	seen []bool
	rows []int
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
	idx := &ThresholdIndex{
		words: words,
		basis: basis,
		mat:   NewMatrix(basis, vecs),
		lsh:   NewLSHIndex(s, 0, 0), // iterates s.Words(): entry i == row i
	}
	idx.planes = make([]float64, 0, idx.lsh.l*idx.lsh.k*Dim)
	for t := 0; t < idx.lsh.l; t++ {
		for b := 0; b < idx.lsh.k; b++ {
			for _, x := range idx.lsh.planes[t][b] {
				idx.planes = append(idx.planes, float64(x))
			}
		}
	}
	n := len(words)
	idx.scratch.New = func() any { return &idxScratch{seen: make([]bool, n)} }
	return idx
}

// Basis returns the pruning basis the index's matrix was built with, so
// callers can build Matrices and Queries that share it.
func (idx *ThresholdIndex) Basis() *Basis { return idx.basis }

// Len returns the number of indexed words.
func (idx *ThresholdIndex) Len() int { return len(idx.words) }

// Word returns the indexed word at row i (rows are sorted vocabulary order).
func (idx *ThresholdIndex) Word(i int) string { return idx.words[i] }

// RowOf returns the row index of a word, or -1 if it is not indexed.
func (idx *ThresholdIndex) RowOf(word string) int {
	i := sort.SearchStrings(idx.words, word)
	if i < len(idx.words) && idx.words[i] == word {
		return i
	}
	return -1
}

// querySignature computes the query's bucket signature for one LSH table
// from dot-product signs against the flattened planes.
func (idx *ThresholdIndex) querySignature(q *Query, t int) uint32 {
	var sig uint32
	base := t * idx.lsh.k * Dim
	for b := 0; b < idx.lsh.k; b++ {
		row := idx.planes[base+b*Dim : base+(b+1)*Dim]
		var dot float64
		for j := 0; j < Dim; j++ {
			dot += q.comps[j] * row[j]
		}
		if dot >= 0 {
			sig |= 1 << uint(b)
		}
	}
	return sig
}

// candidateRows appends the deduplicated LSH bucket candidates for q to out,
// marking each appended row in seen. The caller owns resetting seen.
func (idx *ThresholdIndex) candidateRows(q *Query, seen []bool, out []int) []int {
	for t := 0; t < idx.lsh.l; t++ {
		sig := idx.querySignature(q, t)
		for _, i := range idx.lsh.buckets[t][sig] {
			if !seen[i] {
				seen[i] = true
				out = append(out, i)
			}
		}
	}
	return out
}

// CandidateRows appends the rows sharing an LSH bucket with q — the likely
// near neighbors — to buf and returns it. The result is approximate by
// construction; use it only to prime exact sweeps (e.g. seeding the running
// best of an ArgMax so the bound prunes harder), never as a result set.
func (idx *ThresholdIndex) CandidateRows(q *Query, buf []int) []int {
	sc := idx.scratch.Get().(*idxScratch)
	buf = idx.candidateRows(q, sc.seen, buf)
	for _, i := range buf {
		sc.seen[i] = false
	}
	idx.scratch.Put(sc)
	return buf
}

// CandidateRowsOfRow is CandidateRows for a query vector that is itself the
// indexed row: the signatures stored at build time replace the k·l
// sign-of-dot sweeps, so bucket retrieval costs no dot products at all.
func (idx *ThresholdIndex) CandidateRowsOfRow(row int, buf []int) []int {
	sc := idx.scratch.Get().(*idxScratch)
	l := idx.lsh.l
	for t := 0; t < l; t++ {
		sig := idx.lsh.sigs[row*l+t]
		for _, i := range idx.lsh.buckets[t][sig] {
			if !sc.seen[i] {
				sc.seen[i] = true
				buf = append(buf, i)
			}
		}
	}
	for _, i := range buf {
		sc.seen[i] = false
	}
	idx.scratch.Put(sc)
	return buf
}

// Neighbors returns all indexed words with cosine similarity ≥ tau to the
// query, ordered by decreasing similarity with ties broken alphabetically —
// bit-for-bit identical to Space.Neighbors on the snapshotted vocabulary.
func (idx *ThresholdIndex) Neighbors(query Vector, tau float64) []Neighbor {
	q := idx.basis.Query(query)
	return idx.NeighborsQuery(&q, tau)
}

// NeighborsQuery is Neighbors for a precomputed query (which must have been
// built by this index's Basis).
func (idx *ThresholdIndex) NeighborsQuery(q *Query, tau float64) []Neighbor {
	n := idx.mat.Len()
	if q.Zero() {
		// CosineAt defines every similarity against a zero vector as 0.
		if tau > 0 {
			return nil
		}
		out := make([]Neighbor, n)
		for i := range out {
			out[i] = Neighbor{Word: idx.words[i]}
		}
		return out // rows are sorted words: already the tie-break order
	}
	sc := idx.scratch.Get().(*idxScratch)
	var out []Neighbor
	// Fast path: score LSH bucket candidates by true cosine.
	sc.rows = idx.candidateRows(q, sc.seen, sc.rows[:0])
	for _, i := range sc.rows {
		if sim := idx.mat.Cosine(q, i); sim >= tau {
			out = append(out, Neighbor{Word: idx.words[i], Sim: sim})
		}
	}
	var filtered uint64
	passed := uint64(len(sc.rows)) // every LSH candidate reached the cosine
	// Exact-verification fallback: screen everything LSH did not propose by
	// the sketch bound and score survivors by true cosine. This pass is what
	// makes the result identical to the brute-force sweep rather than
	// approximate.
	for i := 0; i < n; i++ {
		if sc.seen[i] {
			sc.seen[i] = false // reset scratch as we go
			continue
		}
		if idx.mat.bound(q, i)+boundMargin < tau {
			filtered++
			continue
		}
		passed++
		if sim := idx.mat.Cosine(q, i); sim >= tau {
			out = append(out, Neighbor{Word: idx.words[i], Sim: sim})
		}
	}
	idx.scratch.Put(sc)
	addSweepStats(filtered, passed)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sim != out[j].Sim {
			return out[i].Sim > out[j].Sim
		}
		return out[i].Word < out[j].Word
	})
	return out
}

// Query precomputes the sweep view of v under the index's basis.
func (idx *ThresholdIndex) Query(v Vector) Query { return idx.basis.Query(v) }
