// Package matcher implements THOR's semantic similarity matcher (Section
// IV-A/IV-B of the paper): a weakly supervised entity matcher fine-tuned from
// the integrated table's own instances, with no annotated text.
//
// Fine-tuning associates each concept with a set of representative vectors:
// the embeddings of the concept's known instances (seeds, from R.C) and of
// their content words, plus every vocabulary word whose similarity to a seed
// word reaches the user threshold τ. Matching scores a candidate subphrase by
// its lexical head — the rightmost content word, which determines the
// phrase's category — against the representative cluster, and reports the
// best-matching seed instance c_m for syntactic refinement.
//
// τ therefore controls both how far the cluster expands beyond the known
// instances and how close a head must be to count as a match: τ=1.0 accepts
// only heads that coincide with known-instance words (precision-oriented),
// while τ=0.5 reaches deep into the embedding neighborhood
// (recall-oriented), reproducing the trade-off of Table V.
//
// # Performance
//
// Matching is the pipeline's hot path, so the matcher is built around
// precomputed structures whose results are bit-for-bit identical to the
// brute-force definitions above. Each cluster's seed and word vectors are
// flattened into contiguous embed.Matrix slabs at FineTune time, so head-fit
// and best-seed sweeps are cache-friendly dot products with precomputed
// norms and conservative-bound pruning; the rows that pass the bound are
// scored four at a time, each with its own accumulator. Head-fit sweeps
// start just below the acceptance floor, so the bound skips nearly every row
// of a head that cannot be accepted. τ-expansion runs through the space's
// shared ThresholdIndex, one bound-screened sweep of the vocabulary whose
// results equal a brute scan. Head fits, subphrase queries, and best seeds
// are memoized in read-mostly copy-on-write maps (package cow) that cost one
// atomic load per hit under the pipeline's parallel document workers. Match
// looks up the best seed c_m only for the candidates it keeps.
//
// Fine-tuning uses every core itself: the per-seed-head expansion
// retrievals, the warm fit rows of the seed heads and the rows of every
// matrix it builds fan out over GOMAXPROCS goroutines (package par). In a
// threshold sweep no document worker has started yet. In thord a live-table
// swap fine-tunes the next version while request workers keep serving the
// current one, so the two share the cores; the benchmark's churn workload,
// which swaps every 250 ms, showed no fill-latency regression from it.
//
// A Cache shares the τ-independent parts of a threshold sweep — seed
// clusters, expansion lists, fit-share profiles and subphrase queries — so a
// head whose fit profile is cached costs a lookup, not a sweep query.
package matcher
