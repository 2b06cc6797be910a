package matcher

import (
	"math"
	"sort"

	"thor/internal/cow"
	"thor/internal/embed"
)

// fitShare is the τ-independent head-fit model for one concept, shared across
// an entire threshold sweep through the Cache. A matcher's fit for a head
// word is the maximum cosine between the head and the cluster's
// representative words — the seed heads plus every expansion neighbor with
// retrieval similarity ≥ τ for some source. A word enters the τ-cut exactly
// when its *best* similarity across sources reaches τ, so ordering the
// deduplicated expansion words by decreasing best similarity makes every
// threshold's representative set a prefix of one sequence, and the fit
// decomposes exactly:
//
//	fit(head, τ) = max( max over seed heads, prefixMax[cut(τ)] )
//
// where prefixMax is the running maximum of cosines down that sequence and
// cut(τ) the prefix length with best similarity ≥ τ. Neither part depends on
// τ, so one screened sweep per head serves the whole sweep — bit-identically:
// a float64 maximum is order-independent, deduplication never changes a
// maximum (duplicates carry equal cosines), and the pruning tiers are
// conservative.
//
// A fitShare belongs to one expansion-entry generation: if a later request
// lowers the cached τ and recomputes longer lists, the new entry carries a
// new share, while matchers built against the old generation keep theirs
// (still exact for their thresholds — a τ-cut names the same word set on
// either generation).
type fitShare struct {
	// headMat holds the seed-head vectors (the τ-independent prefix of the
	// cluster's word list).
	headMat *embed.Matrix
	// expMat holds the deduplicated expansion words, sorted by decreasing
	// bestSim with alphabetical tie-breaks.
	expMat *embed.Matrix
	// bestSim[i] is row i's best retrieval similarity across sources —
	// non-increasing, so cutAt resolves by binary search.
	bestSim []float64
	// prof memoizes per head word the fit profile: prof[0] is the seed-head
	// maximum, prof[1+i] the prefix maximum of cosines through expMat row i.
	prof *cow.Map[string, []float64]
}

// buildFitShare constructs the shared fit model from the concept's seed heads
// and its full cached expansion lists.
func buildFitShare(space *embed.Space, basis *embed.Basis, heads []Representative, lists [][]embed.Neighbor) *fitShare {
	s := &fitShare{prof: cow.New[string, []float64]()}
	hv := make([]embed.Vector, len(heads))
	for i := range heads {
		hv[i] = heads[i].Vector
	}
	s.headMat = embed.NewMatrix(basis, hv)
	best := make(map[string]float64)
	var order []string
	for _, l := range lists {
		for _, nb := range l {
			if v, ok := best[nb.Word]; !ok {
				best[nb.Word] = nb.Sim
				order = append(order, nb.Word)
			} else if nb.Sim > v {
				best[nb.Word] = nb.Sim
			}
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if best[order[i]] != best[order[j]] {
			return best[order[i]] > best[order[j]]
		}
		return order[i] < order[j]
	})
	vecs := make([]embed.Vector, len(order))
	s.bestSim = make([]float64, len(order))
	for i, w := range order {
		vecs[i] = space.Lookup(w)
		s.bestSim[i] = best[w]
	}
	s.expMat = embed.NewMatrix(basis, vecs)
	return s
}

// cutAt returns the τ-prefix length: the number of expansion words whose best
// retrieval similarity reaches tau.
func (s *fitShare) cutAt(tau float64) int {
	return sort.Search(len(s.bestSim), func(k int) bool { return s.bestSim[k] < tau })
}

// fit returns the exact fit for a head under a τ-prefix of cut rows:
// max(seed-head maximum, prefix maximum at cut). The head's fit profile is
// memoized per head across the whole sweep; hq must hold the head's
// (non-zero) vector, and its query is built only when the profile is missing.
// The profile sweep starts at the largest float64 below the acceptance floor
// — the same starting point the per-τ sweeps use — so sub-floor maxima come
// back clamped (they are consumed only through the `fit < floor` rejection
// test) while above-floor maxima are exact, and the sketch bound skips
// nearly every sub-floor row.
func (s *fitShare) fit(head string, hq *headQuery, cut int) float64 {
	p, ok := s.prof.Get(head)
	if !ok {
		q := hq.query()
		floor := math.Nextafter(acceptFloorBar, 0)
		p = make([]float64, 1+s.expMat.Len())
		p[0] = s.headMat.Max(q, floor)
		if n := s.expMat.Len(); n > 0 {
			s.expMat.PrefixMaxFloor(q, 0, n, floor, p[1:])
		}
		s.prof.Put(head, p)
	}
	best := p[0]
	if cut > 0 && p[cut] > best {
		best = p[cut]
	}
	return best
}
