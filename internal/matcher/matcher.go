package matcher

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"thor/internal/cow"
	"thor/internal/embed"
	"thor/internal/par"
	"thor/internal/phrase"
	"thor/internal/schema"
	"thor/internal/text"
)

// Representative is one entry in a concept's fine-tuned cluster.
type Representative struct {
	// Phrase is the normalized surface form (an instance or a single word).
	Phrase string
	// Vector is its embedding.
	Vector embed.Vector
	// Seed reports whether it is a known instance from the table (true) or
	// a τ-expansion neighbor (false).
	Seed bool
	// Via names the seed word that admitted a τ-expansion neighbor (empty
	// for seeds themselves).
	Via string
}

// conceptCluster is the fine-tuned model for one concept.
type conceptCluster struct {
	concept schema.Concept
	// seeds are the known instances (full phrases), used to pick c_m.
	seeds []Representative
	// words are the matchable word vectors: content words of the seeds
	// plus τ-expansion neighbors.
	words []Representative
	// seedMat and wordMat are the SoA forms of seeds and words (rows
	// aligned), built once at FineTune time; wordMat stays nil when share
	// resolves the fits.
	seedMat *embed.Matrix
	wordMat *embed.Matrix
	// seedMemo caches bestSeed per subphrase text.
	seedMemo *cow.Map[string, string]
	// share, when non-nil (cache-backed fine-tune with expansion), resolves
	// head fits through the cross-τ profile instead of a per-τ wordMat sweep;
	// cut is this matcher's τ-prefix length into the shared word sequence.
	share *fitShare
	cut   int
}

// Candidate is one match the matcher proposes for a subphrase.
type Candidate struct {
	// Phrase is the matched subphrase (e.p), normalized.
	Phrase string
	// Concept is the assigned concept (e.C).
	Concept schema.Concept
	// Matched is the concept instance c_m most similar to the subphrase.
	Matched string
	// Sim is the head-word cluster-fit score that selected the concept.
	Sim float64
}

// Config controls fine-tuning and matching.
type Config struct {
	// Tau is the user threshold τ: vocabulary words with similarity ≥ Tau
	// to a seed word become representatives, and a candidate head must fit
	// the cluster with at least (approximately) Tau similarity.
	Tau float64
	// MaxPerPhrase caps the candidates returned per (phrase, concept) pair
	// — syntactic refinement judges between concepts, so every concept
	// keeps its strongest subphrases. Zero means 2.
	MaxPerPhrase int
	// IncludeSubject, when set, also builds a cluster for the subject
	// concept so mentions of other subject instances are conceptualized
	// (the evaluation counts them; slot filling skips them).
	IncludeSubject bool
	// DisableExpansion turns off τ-expansion, keeping only seed words as
	// representatives (ablation: seeds-only matcher).
	DisableExpansion bool
}

func (c Config) maxPerPhrase() int {
	if c.MaxPerPhrase <= 0 {
		return 2
	}
	return c.MaxPerPhrase
}

// acceptFloorBar is the fixed acceptance bar below. It is also baked into the
// shared cross-τ fit profiles (fitShare): sub-floor prefix maxima are clamped
// to just below it, which changes nothing observable — Match consumes a fit
// only through `fit < acceptFloor` and as the exact Sim of accepted (above-
// floor) candidates — while letting the profile sweep prune as hard as the
// per-τ sweeps did.
const acceptFloorBar = 0.95

// acceptFloor is the minimum head-word cluster fit for a candidate. It is a
// high fixed bar: a candidate's head must effectively *be* one of the
// representative vectors. The user threshold τ therefore acts purely through
// fine-tuning — it decides how far the representative set expands beyond the
// known instances — which is exactly the paper's design: the matcher
// recognizes members of the fine-tuned clusters, and τ trades how inclusive
// those clusters are.
func (c Config) acceptFloor() float64 { return acceptFloorBar }

// Matcher is a fine-tuned semantic similarity matcher. Construct with
// FineTune; it is then safe for concurrent use.
type Matcher struct {
	space     *embed.Space
	cfg       Config
	clusters  []*conceptCluster
	byConcept map[schema.Concept]*conceptCluster
	basis     *embed.Basis
	// fitMemo caches, per head word, the fit against every cluster (Match
	// scores each head against all clusters anyway, so one miss fills the
	// whole row). Seeded with the seed head words at FineTune time.
	fitMemo *cow.Map[string, []float64]
	// subQueries caches the precomputed sweep query per subphrase text.
	subQueries *cow.Map[string, *embed.Query]
	ctxPool    sync.Pool // *MatchContext, for the context-free Match API
}

// sharedSeeds is the τ-independent part of a concept's fine-tuned model:
// the seed instances from the table, their lexical head words (the prefix of
// the matchable word set), the seed sweep matrix, and the best-seed memo.
// None of it depends on Config, so a Cache shares one instance across an
// entire threshold sweep instead of rebuilding (and re-memoizing) it per τ.
type sharedSeeds struct {
	seeds []Representative
	heads []Representative
	mat   *embed.Matrix
	memo  *cow.Map[string, string]
}

// buildSeedCluster constructs the shared seed model for one concept from its
// table instances.
func buildSeedCluster(space *embed.Space, basis *embed.Basis, instances []string) *sharedSeeds {
	sh := &sharedSeeds{memo: cow.New[string, string]()}
	seenWord := make(map[string]bool)
	seenSeed := make(map[string]bool)
	for _, inst := range instances {
		norm := text.NormalizePhrase(inst)
		if norm == "" || seenSeed[norm] {
			continue
		}
		seenSeed[norm] = true
		vec := space.PhraseVectorCached(norm)
		if vec.Zero() {
			continue
		}
		sh.seeds = append(sh.seeds, Representative{Phrase: norm, Vector: vec, Seed: true})
		// Only the instance's lexical head joins the matchable word set:
		// matching is head-to-head, and admitting modifier words
		// ("follow-up", "severe") as representatives would let modifier
		// fragments of unrelated phrases match the concept.
		if w := headWord(strings.Fields(norm)); w != "" && !seenWord[w] {
			seenWord[w] = true
			sh.heads = append(sh.heads, Representative{Phrase: w, Vector: space.Lookup(w), Seed: true})
		}
	}
	vecs := make([]embed.Vector, len(sh.seeds))
	for i := range sh.seeds {
		vecs[i] = sh.seeds[i].Vector
	}
	sh.mat = embed.NewMatrix(basis, vecs)
	return sh
}

// FineTune builds the matcher for the table's schema and instances
// (MATCHER.FINETUNE in Algorithm 1). The embedding space supplies vectors
// for both seeds and expansion candidates.
func FineTune(space *embed.Space, table *schema.Table, cfg Config) (*Matcher, error) {
	return fineTune(space, table, cfg, nil)
}

// fineTune is FineTune with an optional cache supplying shared τ-independent
// seed clusters.
func fineTune(space *embed.Space, table *schema.Table, cfg Config, cache *Cache) (*Matcher, error) {
	if space == nil || table == nil {
		return nil, fmt.Errorf("matcher: nil space or table")
	}
	if cfg.Tau < 0 || cfg.Tau > 1 {
		return nil, fmt.Errorf("matcher: tau %v outside [0,1]", cfg.Tau)
	}
	idx := space.Index()
	m := &Matcher{
		space:      space,
		cfg:        cfg,
		byConcept:  make(map[schema.Concept]*conceptCluster),
		basis:      idx.Basis(),
		fitMemo:    cow.New[string, []float64](),
		subQueries: cow.New[string, *embed.Query](),
	}
	if cache != nil {
		// Sweep queries are τ-independent; share one memo across the sweep.
		m.subQueries = cache.queriesFor(idx)
	}
	for _, c := range table.Schema.Concepts {
		if c == table.Schema.Subject && !cfg.IncludeSubject {
			continue
		}
		build := func() *sharedSeeds { return buildSeedCluster(space, m.basis, table.ColumnValues(c)) }
		var sh *sharedSeeds
		var fp uint64
		if cache != nil {
			// Per-concept keying: the shared seeds, expansion lists and fit
			// profile are pure functions of THIS concept's instance set, so
			// they key on its column fingerprint rather than the whole
			// table's. A live-table mutation that leaves a concept's column
			// untouched then re-fine-tunes through warm entries for it —
			// only the mutated concepts rebuild.
			fp = table.ConceptFingerprint(c)
			sh = cache.seedsFor(idx, fp, c, build)
		} else {
			sh = build()
		}
		if len(sh.seeds) == 0 {
			continue // no usable seeds: the concept cannot be matched
		}
		cluster := &conceptCluster{
			concept:  c,
			seeds:    sh.seeds,
			words:    append([]Representative(nil), sh.heads...),
			seedMat:  sh.mat,
			seedMemo: sh.memo,
		}
		if !cfg.DisableExpansion {
			expandCluster(idx, space, cluster, cfg.Tau, cache, fp)
			if cache != nil {
				if share := cache.fitShareFor(idx, space, fp, c, sh.heads); share != nil {
					cluster.share = share
					cluster.cut = share.cutAt(cfg.Tau)
				}
			}
		}
		m.clusters = append(m.clusters, cluster)
		m.byConcept[c] = cluster
	}
	if len(m.clusters) == 0 {
		return nil, fmt.Errorf("matcher: no concept has usable seed instances")
	}
	m.vectorize()
	m.warmFits()
	m.ctxPool.New = func() any { return m.NewContext() }
	return m, nil
}

// expandCluster adds vocabulary words similar to any seed word (cosine ≥
// tau) as non-seed representatives — the weak-supervision "fine-tuning"
// step. Lower τ expands further into the embedding neighborhood. Retrieval
// goes through the space's threshold index, whose results are identical to
// brute-force Space.Neighbors scans (the sketch bound screens, exact cosine
// verifies). With a cache, the per-source neighbor lists are shared
// across the whole τ sweep (see Cache.expansionFor): the sources — the seed
// head words — are τ-independent, and a higher-τ list is an exact prefix of
// a lower-τ list, so one retrieval pass serves every threshold bit-identically.
func expandCluster(idx *embed.ThresholdIndex, space *embed.Space, cluster *conceptCluster, tau float64, cache *Cache, fp uint64) {
	sources := make([]Representative, len(cluster.words))
	copy(sources, cluster.words)
	seen := make(map[string]bool, len(sources))
	for i := range sources {
		seen[sources[i].Phrase] = true
	}
	var lists [][]embed.Neighbor
	if cache != nil {
		lists = cache.expansionFor(idx, fp, cluster.concept, tau, sources)
	} else {
		lists = expansionLists(idx, sources, tau)
	}
	for si, src := range sources {
		for _, nb := range lists[si] {
			if seen[nb.Word] {
				continue
			}
			seen[nb.Word] = true
			cluster.words = append(cluster.words, Representative{
				Phrase: nb.Word,
				Vector: space.Lookup(nb.Word),
				Via:    src.Phrase,
			})
		}
	}
}

// expansionLists retrieves the τ-neighborhood of every source word, in
// source order, spreading the retrievals over every core. Lists are sorted
// by decreasing similarity with alphabetical tie-breaks (the index
// contract), which is what makes cross-τ prefix sharing exact.
func expansionLists(idx *embed.ThresholdIndex, sources []Representative, tau float64) [][]embed.Neighbor {
	lists := make([][]embed.Neighbor, len(sources))
	par.For(len(sources), func(i int) {
		q := idx.Query(sources[i].Vector)
		lists[i] = idx.NeighborsQuery(&q, tau)
	})
	return lists
}

// vectorize flattens every cluster's word vectors into SoA matrices sharing
// the index's pruning basis. Seed matrices arrive prebuilt with the shared
// seed cluster.
func (m *Matcher) vectorize() {
	for _, cl := range m.clusters {
		if cl.share != nil {
			// Fits resolve through the shared cross-τ profile: no per-τ word
			// matrix to build at all.
			continue
		}
		wordVecs := make([]embed.Vector, len(cl.words))
		for i := range cl.words {
			wordVecs[i] = cl.words[i].Vector
		}
		cl.wordMat = embed.NewMatrix(m.basis, wordVecs)
	}
}

// warmFits sizes the fit memo with a warmup pass over the seed head words —
// the heads every accepting document mention must resemble, and by far the
// most frequently queried keys — so the copy-on-write map starts with a
// right-sized read snapshot instead of merging its way up under load. The
// rows are computed on every core; each is a pure function of its head.
func (m *Matcher) warmFits() {
	seen := make(map[string]bool)
	var heads []string
	for _, cl := range m.clusters {
		for i := range cl.words {
			if !cl.words[i].Seed {
				break // seed head words precede expansion words
			}
			if w := cl.words[i].Phrase; !seen[w] {
				seen[w] = true
				heads = append(heads, w)
			}
		}
	}
	rows := make([][]float64, len(heads))
	par.For(len(heads), func(i int) { rows[i] = m.computeFits(heads[i]) })
	init := make(map[string][]float64, len(heads))
	for i, w := range heads {
		init[w] = rows[i]
	}
	m.fitMemo.Seed(init)
}

// computeFits scores a head word against every cluster: the maximum cosine
// between the head and the cluster's representative words. Match consumes a
// fit only through the acceptance test `fit < acceptFloor` (rejected) and as
// the exact Sim of accepted candidates, so the sweep starts at the largest
// float64 below the floor and stores sub-floor maxima as 0: accepted fits
// are bit-identical to the brute-force sweep while rejected heads skip
// nearly every dot product.
func (m *Matcher) computeFits(head string) []float64 {
	fits := make([]float64, len(m.clusters))
	v := m.space.Lookup(head)
	if v.Zero() {
		return fits
	}
	hq := headQuery{basis: m.basis, v: &v}
	floor := math.Nextafter(m.cfg.acceptFloor(), 0)
	for ci, cl := range m.clusters {
		var best float64
		if cl.share != nil {
			// Cross-τ path: the shared profile's exact maxima reduce this
			// matcher's fit to max(seed-head max, prefix max at its τ cut) —
			// the same floored value the per-τ wordMat sweep produces.
			best = cl.share.fit(head, &hq, cl.cut)
		} else {
			best = cl.wordMat.Max(hq.query(), floor)
		}
		if best > floor {
			fits[ci] = best
		}
	}
	return fits
}

// headQuery builds a head word's sweep query on first use, so a head whose
// every cluster answers from a cached fit profile builds none.
type headQuery struct {
	basis *embed.Basis
	v     *embed.Vector
	q     embed.Query
	built bool
}

func (h *headQuery) query() *embed.Query {
	if !h.built {
		h.q, h.built = h.basis.Query(*h.v), true
	}
	return &h.q
}

// headFits returns the per-cluster fit row for a head word, memoized.
func (m *Matcher) headFits(head string) []float64 {
	if fits, ok := m.fitMemo.Get(head); ok {
		return fits
	}
	fits := m.computeFits(head)
	m.fitMemo.Put(head, fits)
	return fits
}

// subQuery returns the precomputed sweep query for a subphrase's normalized
// text, memoized. The phrase embedding itself comes from the space's shared
// phrase-vector memo.
func (m *Matcher) subQuery(subText string) *embed.Query {
	if q, ok := m.subQueries.Get(subText); ok {
		return q
	}
	q := m.basis.Query(m.space.PhraseVectorCached(subText))
	m.subQueries.Put(subText, &q)
	return &q
}

// bestSeed returns the seed instance c_m whose embedding is most similar to
// the subphrase (earliest seed wins ties, as in the sequential sweep).
func (m *Matcher) bestSeed(cl *conceptCluster, subText string) string {
	if s, ok := cl.seedMemo.Get(subText); ok {
		return s
	}
	i, _ := cl.seedMat.ArgMax(m.subQuery(subText), -2.0)
	s := ""
	if i >= 0 {
		s = cl.seeds[i].Phrase
	}
	cl.seedMemo.Put(subText, s)
	return s
}

// Concepts returns the concepts the matcher was fine-tuned for, in schema
// order.
func (m *Matcher) Concepts() []schema.Concept {
	out := make([]schema.Concept, len(m.clusters))
	for i, c := range m.clusters {
		out[i] = c.concept
	}
	return out
}

// Representatives returns the fine-tuned word cluster for a concept (nil if
// the concept is unknown). The slice must not be modified.
func (m *Matcher) Representatives(c schema.Concept) []Representative {
	if cl, ok := m.byConcept[c]; ok {
		return cl.words
	}
	return nil
}

// Seeds returns the seed instances for a concept.
func (m *Matcher) Seeds(c schema.Concept) []Representative {
	if cl, ok := m.byConcept[c]; ok {
		return cl.seeds
	}
	return nil
}

// candKey identifies a (subphrase, concept) pair for deduplication without
// building a composite string key.
type candKey struct {
	phrase  string
	concept schema.Concept
}

// MatchContext carries the per-worker scratch space Match needs — subphrase
// spans, word offsets, the candidate buffer, and the dedup / per-concept-cap
// tables — so repeated Match calls stop allocating them. A context is NOT
// safe for concurrent use: give each worker goroutine its own via
// NewContext. The context-free Matcher.Match draws from an internal pool.
type MatchContext struct {
	m          *Matcher
	spans      []phrase.Span
	offs       []int
	cands      []Candidate
	dedup      map[candKey]bool
	perConcept []int
}

// NewContext returns a fresh scratch context bound to the matcher.
func (m *Matcher) NewContext() *MatchContext {
	return &MatchContext{
		m:          m,
		dedup:      make(map[candKey]bool),
		perConcept: make([]int, len(m.clusters)),
	}
}

// AcquireContext returns a scratch context from the matcher's internal pool.
// Callers that process many phrases (the pipeline's document workers, the
// serving layer's batches) acquire once, reuse across calls, and release
// with ReleaseContext, so steady-state matching allocates no scratch at all.
func (m *Matcher) AcquireContext() *MatchContext {
	return m.ctxPool.Get().(*MatchContext)
}

// ReleaseContext returns a context obtained from AcquireContext to the pool.
// The context must not be used afterwards.
func (m *Matcher) ReleaseContext(c *MatchContext) { m.ctxPool.Put(c) }

// Match proposes candidate entities for a phrase (MATCHER.MATCH in Algorithm
// 1): every subphrase is scored by its lexical head against every concept
// cluster; (subphrase, concept) pairs whose fit reaches the acceptance floor
// become candidates, capped at MaxPerPhrase, strongest first.
func (m *Matcher) Match(p phrase.Phrase) []Candidate {
	ctx := m.AcquireContext()
	out := ctx.Match(p)
	m.ReleaseContext(ctx)
	return out
}

// Match is Matcher.Match running on this context's scratch space. The
// returned slice is freshly allocated and owned by the caller.
func (c *MatchContext) Match(p phrase.Phrase) []Candidate {
	kept := c.MatchBuf(p)
	if len(kept) == 0 {
		return nil
	}
	out := make([]Candidate, len(kept))
	copy(out, kept)
	return out
}

// MatchBuf is Match returning a slice backed by the context's scratch: the
// result is valid only until the next Match/MatchBuf call on this context and
// must not be retained or mutated. It is the zero-allocation form the
// pipeline's hot loop consumes candidates through.
func (c *MatchContext) MatchBuf(p phrase.Phrase) []Candidate {
	m := c.m
	floor := m.cfg.acceptFloor()
	c.spans = phrase.AppendSubphraseSpans(c.spans[:0], p)
	if len(c.spans) == 0 {
		return nil
	}
	// Join the phrase once, and only once a subphrase is actually accepted;
	// every subphrase is then a substring of the join, addressed by
	// precomputed word offsets. Phrases with no accepted subphrase — the
	// overwhelming majority on the serving hot path — never allocate.
	joined := ""
	c.cands = c.cands[:0]
	for _, sp := range c.spans {
		head := headWord(p.Words[sp.Start:sp.End])
		if head == "" {
			continue
		}
		fits := m.headFits(head)
		subText := ""
		for ci, cl := range m.clusters {
			fit := fits[ci]
			if fit < floor {
				continue
			}
			if subText == "" {
				if joined == "" {
					joined = strings.Join(p.Words, " ")
					c.offs = c.offs[:0]
					off := 0
					for _, w := range p.Words {
						c.offs = append(c.offs, off)
						off += len(w) + 1
					}
				}
				subText = joined[c.offs[sp.Start] : c.offs[sp.End-1]+len(p.Words[sp.End-1])]
			}
			c.cands = append(c.cands, Candidate{
				Phrase:  subText,
				Concept: cl.concept,
				Sim:     fit,
			})
		}
	}
	if len(c.cands) == 0 {
		return nil
	}
	stableSortBySim(c.cands)
	// Dedupe (phrase, concept) pairs, keeping the strongest, and cap the
	// candidates kept per concept — all on reused scratch tables. None of
	// this reads Matched, so c_m is looked up for kept candidates only.
	clear(c.dedup)
	for i := range c.perConcept {
		c.perConcept[i] = 0
	}
	maxPer := m.cfg.maxPerPhrase()
	kept := c.cands[:0]
	for _, cand := range c.cands {
		key := candKey{phrase: cand.Phrase, concept: cand.Concept}
		if c.dedup[key] {
			continue
		}
		c.dedup[key] = true
		ci := m.clusterIndex(cand.Concept)
		if c.perConcept[ci] >= maxPer {
			continue
		}
		c.perConcept[ci]++
		cand.Matched = m.bestSeed(m.clusters[ci], cand.Phrase)
		kept = append(kept, cand)
	}
	c.cands = kept
	return kept
}

// clusterIndex returns the position of a concept's cluster in m.clusters.
// Match only calls it for concepts the matcher itself emitted.
func (m *Matcher) clusterIndex(concept schema.Concept) int {
	for i, cl := range m.clusters {
		if cl.concept == concept {
			return i
		}
	}
	return 0
}

// stableSortBySim sorts candidates by decreasing Sim, preserving the input
// order of equals — the same order sort.SliceStable produced, without its
// reflection overhead. Candidate lists are short (a handful per phrase), so
// insertion sort is both stable and fast.
func stableSortBySim(cands []Candidate) {
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].Sim > cands[j-1].Sim; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
}

// headWord returns the rightmost content word of a subphrase — the lexical
// head that determines the phrase's category.
func headWord(words []string) string {
	for i := len(words) - 1; i >= 0; i-- {
		if !text.IsStopword(words[i]) {
			return words[i]
		}
	}
	return ""
}

// Similarity returns the semantic similarity (cosine over phrase embeddings)
// between two phrases — MATCHER.SIMILARITY in Algorithm 1, the e.score_s
// component.
func (m *Matcher) Similarity(a, b string) float64 {
	sim := m.space.Similarity(text.NormalizePhrase(a), text.NormalizePhrase(b))
	if sim < 0 {
		return 0
	}
	return sim
}

// Explanation describes why (or how well) a phrase head fits one concept
// cluster: the best representative, how it entered the cluster, and the
// similarity. Explanations make slot fills auditable.
type Explanation struct {
	// Concept is the cluster being explained.
	Concept schema.Concept
	// Fit is the head-word cluster fit used for acceptance.
	Fit float64
	// BestRep is the representative word closest to the head.
	BestRep Representative
	// Accepted reports whether the fit clears the acceptance floor.
	Accepted bool
}

// Explain scores the phrase's head against every cluster and reports the
// per-concept evidence, strongest first. It scans the representative words
// directly (earliest wins ties), so it works the same whether the cluster's
// fits come from a per-τ word matrix or a shared cross-τ profile.
func (m *Matcher) Explain(p phrase.Phrase) []Explanation {
	head := headWord(p.Words)
	if head == "" {
		return nil
	}
	v := m.space.Lookup(head)
	floor := m.cfg.acceptFloor()
	var out []Explanation
	for _, cl := range m.clusters {
		best, bestSim := Representative{}, -2.0
		if !v.Zero() {
			for i := range cl.words {
				if sim := embed.CosineAt(&v, &cl.words[i].Vector); sim > bestSim {
					bestSim, best = sim, cl.words[i]
				}
			}
		}
		if bestSim < 0 {
			bestSim = 0
		}
		out = append(out, Explanation{
			Concept:  cl.concept,
			Fit:      bestSim,
			BestRep:  best,
			Accepted: bestSim >= floor,
		})
	}
	stableSortByFit(out)
	return out
}

func stableSortByFit(out []Explanation) {
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Fit > out[j-1].Fit; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
}
