// Package serve is THOR's online serving layer: a long-lived, stdlib-only
// HTTP engine that loads the integrated table, embedding space and warm
// matcher/parse caches once, then answers concurrent slot-filling requests.
// Command thord wraps it in a daemon.
//
// The paper's pipeline (Algorithm 1) is a batch job; serve re-frames it as
// the online, per-query problem of the localized-imputation literature:
// each request carries a handful of documents and expects its own isolated
// answer, while the expensive shared state — matcher fine-tuning
// (matcher.Cache), sentence analysis and refinement scores (both in
// thor.ParseCache) — amortizes across every request the process ever
// serves. Refinement scores are keyed by the embedding space, not the table,
// so they survive live-table swaps: a new version re-scores only the
// (phrase, matched seed) pairs it has not seen.
//
// Each cache keeps one generation of what a swap can change. The fine-tune
// cache holds one matcher for the server's configuration, and one seed
// cluster and expansion entry per concept, of the newest table. The parse
// cache holds one document group — the document analyses of one subject
// set, each a list of sentence subjects and phrase lists — for the newest
// subject set: a swap that adds a row takes a new group, and the old one is
// collected once the superseded version drains. After every batch the
// thor_cache_* gauges report the sizes (docs/OBSERVABILITY.md).
//
// # Request flow
//
//	handler ──enqueue──▶ bounded queue ──▶ coalescer ──▶ one thor.RunContext
//	   ▲                    │ full?            │ gather ≤ BatchMax docs          │
//	   └── 503 + Retry-After ┘                 │ or BatchWindow of wall time     ▼
//	                                      demultiplex per request ◀── DocResults
//
// Admission control keeps the queue bounded: when it is full the request is
// shed immediately with 503 and a Retry-After header rather than queued
// into unbounded latency. The coalescer gathers queued requests into a
// micro-batch (up to Options.BatchMax documents, waiting at most
// Options.BatchWindow after the first), runs them through a single
// thor.RunContext call with Config.CollectDocResults, and splits the
// per-document outcomes back out by request. Quarantine records (PR 3) ride
// along, so one request's poisoned document never fails its batchmates —
// they simply see their own documents' results, bit-identical to what a
// single-shot run over just their documents would return (asserted by
// TestBatchBitIdentical).
//
// Graceful drain: Shutdown stops admission (new requests are shed), lets
// the coalescer finish every queued and in-flight request, then stops the
// dispatcher goroutine — no request is abandoned and no goroutine leaks.
// Close is the hard variant: it cancels the in-flight batch (clients get a
// server_closed error envelope).
package serve
