package matcher

import (
	"sort"
	"sync"

	"thor/internal/embed"
	"thor/internal/schema"
)

// tuneKey identifies one fine-tune generation: the space's vocabulary
// snapshot (by index identity — vectors are not hashed, so distinct spaces
// never share an entry, and adding words to a space invalidates its index and
// with it every cached matcher) and the full matcher configuration. The
// cache keeps the matcher of one knowledge table per key: the newest table
// asked for (see tuned).
type tuneKey struct {
	index *embed.ThresholdIndex
	cfg   Config
}

// tuned is a cached matcher and the knowledge table's content fingerprint it
// was fine-tuned on.
type tuned struct {
	table uint64
	m     *Matcher
}

// conceptKey identifies the cache's shared, τ-independent state for one
// concept: its seed cluster and its expansion lists. Each entry records the
// CONCEPT's instance-set fingerprint (schema.Table.ConceptFingerprint), not
// the whole table's: a seed cluster and its expansions are pure functions of
// their own column's values, so a table mutation that leaves the column
// untouched keeps the entry warm (the incremental invalidation live tables
// rely on), while one that changes it replaces the entry.
type conceptKey struct {
	index   *embed.ThresholdIndex
	concept schema.Concept
}

// seedEntry holds one concept's shared seed cluster for the instance set
// fingerprinted table, built once by the first fine-tune that asks for it;
// later askers wait on once instead of the cache-wide lock, so different
// concepts build at the same time.
type seedEntry struct {
	table uint64
	once  sync.Once
	sh    *sharedSeeds
}

// expandEntry holds one concept's expansion lists for the instance set
// fingerprinted table, computed at tau (the lowest threshold requested so
// far) by the first fine-tune that reaches the entry; later ones wait on
// listsOnce. Lists are immutable once stored; higher-τ requests serve prefix
// subslices. The entry also owns the generation's fitShare — the cross-τ
// head-fit profile built over exactly these lists — created lazily by the
// first fine-tune that needs it.
type expandEntry struct {
	table     uint64
	tau       float64
	listsOnce sync.Once
	lists     [][]embed.Neighbor

	shareOnce sync.Once
	share     *fitShare
}

// Cache memoizes fine-tuned matchers. Threshold-sweep experiments fine-tune
// on the same knowledge table over and over — six τ values, repeated across
// comparison, tuning, and annotation runs — and a Matcher is immutable and
// safe for concurrent use after FineTune, so identical (space, table, config)
// requests can share one instance along with all its warmed memos.
//
// The table is keyed by content (schema.Table.Fingerprint), not identity:
// callers that rebuild an equal table still hit. The cache keeps one table
// generation per (space, config), and one column generation per (space,
// concept) for seed clusters and expansions: fine-tuning on a mutated table
// replaces the superseded entries instead of keeping them beside the new
// ones, so a live table that changes on every write holds one matcher per
// configuration, not one per write. A matcher already handed out keeps its
// own pointers and stays valid; the τ sweep's matchers share one table and
// all stay cached.
type Cache struct {
	mu      sync.Mutex
	entries map[tuneKey]tuned

	// seedMu and expMu guard only the two maps; every entry is built
	// outside them, once (see seedEntry and expandEntry).
	seedMu sync.Mutex
	seeds  map[conceptKey]*seedEntry

	expMu sync.Mutex
	exps  map[conceptKey]*expandEntry
}

// NewCache returns an empty fine-tune cache, safe for concurrent use.
func NewCache() *Cache {
	return &Cache{
		entries: make(map[tuneKey]tuned),
		seeds:   make(map[conceptKey]*seedEntry),
		exps:    make(map[conceptKey]*expandEntry),
	}
}

// seedsFor returns the shared seed cluster for (vocabulary snapshot, concept
// instance-set fingerprint, concept), building and storing it on first
// request; it replaces the cluster cached for another instance set of the
// concept. A threshold sweep fine-tunes once per τ, but the seed instances,
// their sweep matrix and the best-seed memo are τ-independent, so every
// configuration shares one instance — later τ runs start with the earlier
// runs' best-seed memo already warm.
func (c *Cache) seedsFor(index *embed.ThresholdIndex, table uint64, concept schema.Concept, build func() *sharedSeeds) *sharedSeeds {
	key := conceptKey{index: index, concept: concept}
	c.seedMu.Lock()
	e, ok := c.seeds[key]
	if !ok || e.table != table {
		e = &seedEntry{table: table}
		c.seeds[key] = e
	}
	c.seedMu.Unlock()
	e.once.Do(func() { e.sh = build() })
	return e.sh
}

// expansionFor returns the τ-expansion entry for a concept's seed head
// words, shared across thresholds: the sources are τ-independent, and the
// index returns neighbors sorted by decreasing similarity, so the τ' ≥ τ
// result is exactly the prefix of the τ result with Sim ≥ τ'. The cache
// keeps the entry for the lowest τ requested so far and serves higher
// thresholds by prefix cut (listsAt) — bit-identical to a direct retrieval
// at that threshold. A request below the stored τ replaces the entry with
// a new one at its τ (a superset of the old one), and so does a request
// for another instance set of the concept. The sources are the concept's
// shared seed heads, the same for every caller of a key and instance set.
func (c *Cache) expansionFor(index *embed.ThresholdIndex, table uint64, concept schema.Concept, tau float64, sources []Representative) *expandEntry {
	key := conceptKey{index: index, concept: concept}
	c.expMu.Lock()
	e, ok := c.exps[key]
	if !ok || e.table != table || tau < e.tau {
		e = &expandEntry{table: table, tau: tau}
		c.exps[key] = e
	}
	c.expMu.Unlock()
	e.listsOnce.Do(func() { e.lists = expansionLists(index, sources, e.tau) })
	return e
}

// listsAt returns the entry's lists cut to the neighbors with Sim ≥ tau,
// which must be at least the entry's τ.
func (e *expandEntry) listsAt(tau float64) [][]embed.Neighbor {
	if tau == e.tau {
		return e.lists
	}
	cut := make([][]embed.Neighbor, len(e.lists))
	for i, list := range e.lists {
		// Lists are sorted by decreasing Sim: the block with Sim ≥ tau is a
		// prefix, found by binary search.
		n := sort.Search(len(list), func(k int) bool { return list[k].Sim < tau })
		cut[i] = list[:n:n]
	}
	return cut
}

// fitShare returns the concept's cross-τ fit-share over this entry's full
// lists, creating it on first request. The share belongs to the entry's
// generation, so matchers that fetched it stay exact even after a later
// lower-τ request replaces the entry. heads must be the concept's shared
// seed heads — identical for every caller of the same key by construction.
func (e *expandEntry) fitShare(space *embed.Space, basis *embed.Basis, heads []Representative) *fitShare {
	e.shareOnce.Do(func() {
		e.share = buildFitShare(space, basis, heads, e.lists)
	})
	return e.share
}

// FineTune returns the cached matcher for (space, table content, cfg),
// fine-tuning and storing one on the first request; it replaces the matcher
// cached for another table under the same space and cfg. Errors are not
// cached. A nil Cache fine-tunes through a private one, as FineTune does.
func (c *Cache) FineTune(space *embed.Space, table *schema.Table, cfg Config) (*Matcher, error) {
	if c == nil || space == nil || table == nil {
		return FineTune(space, table, cfg) // a private cache; FineTune reports nil inputs
	}
	key, fp := tuneKey{index: space.Index(), cfg: cfg}, table.Fingerprint()
	c.mu.Lock()
	t, ok := c.entries[key]
	c.mu.Unlock()
	if ok && t.table == fp {
		return t.m, nil
	}
	m, err := fineTune(space, table, cfg, c)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	// Keep the first stored instance if another goroutine raced us, so every
	// caller shares one matcher (and its memos).
	if prev, ok := c.entries[key]; ok && prev.table == fp {
		m = prev.m
	} else {
		c.entries[key] = tuned{table: fp, m: m}
	}
	c.mu.Unlock()
	return m, nil
}

// Len returns the number of cached matchers.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// SeedLen returns the number of cached seed clusters.
func (c *Cache) SeedLen() int {
	c.seedMu.Lock()
	defer c.seedMu.Unlock()
	return len(c.seeds)
}
