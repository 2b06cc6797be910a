package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"thor/internal/embed"
	"thor/internal/matcher"
	"thor/internal/obs"
	"thor/internal/pos"
	"thor/internal/schema"
	"thor/internal/segment"
	"thor/internal/tablestore"
	"thor/internal/thor"
)

// Options configure a Server. Table and Space are required; every other
// field has a serving-grade default.
type Options struct {
	// Table is the initial integrated table requests fill slots in. It seeds
	// the server's live-table store (version TableVersion, default 1); later
	// versions arrive through POST /v1/table mutations, each an atomic
	// copy-on-write swap that never blocks in-flight requests. The server
	// owns the table after construction.
	Table *schema.Table
	// TableVersion is the initial live-table version; zero means 1. A daemon
	// restoring a persisted snapshot passes the version it was saved with so
	// fleet version gauges stay comparable across restarts.
	TableVersion uint64
	// OnTableSwap, when set, runs synchronously after every live-table swap
	// with the new version and its table — cmd/thord persists the binary
	// snapshot here. The table is shared and must be treated as read-only.
	OnTableSwap func(version uint64, table *schema.Table)
	// Knowledge optionally fine-tunes the matcher from a different table
	// than the fill target (thor.Config.Knowledge, the paper's evaluation
	// setting). Nil fine-tunes on Table itself.
	Knowledge *schema.Table
	// Space is the embedding space, loaded once at startup.
	Space *embed.Space
	// Tau is the similarity threshold τ ∈ [0,1] every request is served
	// with. Per-request τ would fragment the warm caches, so it is fixed
	// per server.
	Tau float64
	// Lexicon optionally extends the POS tagger with domain words.
	Lexicon map[string]pos.Tag
	// Workers is the pipeline worker count per batch. Zero defaults to
	// GOMAXPROCS.
	Workers int
	// BatchMax is the maximum number of documents coalesced into one
	// pipeline run. Zero defaults to 16.
	BatchMax int
	// BatchWindow is how long the coalescer waits after a batch's first
	// request for more to arrive. Zero dispatches immediately with
	// whatever is already queued (no wait); cmd/thord defaults its flag
	// to 2ms.
	BatchWindow time.Duration
	// QueueDepth bounds the admission queue in requests; a full queue
	// sheds with 503 + Retry-After. Zero defaults to 64.
	QueueDepth int
	// MaxDocsPerRequest bounds one request's document count (400 beyond
	// it). Zero defaults to BatchMax.
	MaxDocsPerRequest int
	// MaxBodyBytes bounds a request body. Zero defaults to 8 MiB.
	MaxBodyBytes int64
	// DocTimeout is the default per-document extraction deadline applied
	// when a request does not set doc_timeout_ms. Zero means none.
	DocTimeout time.Duration
	// Metrics, when set, receives the serving metrics (serve.* counters,
	// gauges and histograms) in addition to the pipeline's thor.* ones.
	Metrics *obs.Registry
	// Tracer, when set, records http.fill/http.extract and batch spans in
	// addition to the pipeline's.
	Tracer *obs.Tracer
	// FaultHook is threaded into every batch's thor.Config.FaultHook: a
	// chaos-testing seam for injecting per-document faults into a live
	// server (see internal/chaos). Nil in production.
	FaultHook func(doc string, stage thor.Stage) error
	// Recorder, when set (alongside Tracer), is the tail-sampling flight
	// recorder: it is attached to Tracer at construction, retains slow,
	// errored, shed and quarantined request traces, and is served at
	// /debug/traces and /debug/traces/{id}.
	Recorder *obs.Recorder
	// SLO, when set, receives one judged observation per request (stream
	// "fill" or "extract") and per-stage latency tracking from every batch;
	// /readyz reports degraded (503) while any judged stream's burn rate
	// breaches its threshold. It also feeds the /metrics exposition's SLO
	// families.
	SLO *obs.SLO
	// Profiler, when set, is served at /debug/profiles and
	// /debug/profiles/{id}. The caller owns its capture loop (obs.Profiler.Run),
	// typically wired to SLO.Degraded — see cmd/thord.
	Profiler *obs.Profiler
	// Journal, when set, records the server's state transitions — table
	// swaps, version drains, drain begin/end — and is served at
	// /debug/events. Appends are allocation-free, so the hooks may sit on
	// serving-path edges without regressing the zero-alloc fill path.
	Journal *obs.Journal
	// Logger, when set, receives structured serving logs correlated by
	// trace_id, batch_id and doc_id (see obs.Log* field names).
	Logger *slog.Logger
	// ShardID optionally names the shard this server holds in a
	// domain-partitioned tier. When set, /readyz and /healthz report it and
	// every /v1/* response carries an X-Thor-Shard header, so a router (or
	// an operator with curl) can verify a backend actually serves the shard
	// the topology says it does.
	ShardID string
}

// withDefaults resolves the zero values documented on Options.
func (o Options) withDefaults() Options {
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.BatchMax == 0 {
		o.BatchMax = 16
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 64
	}
	if o.MaxDocsPerRequest == 0 {
		o.MaxDocsPerRequest = o.BatchMax
	}
	if o.MaxBodyBytes == 0 {
		o.MaxBodyBytes = 8 << 20
	}
	return o
}

// ErrClosed is reported to requests interrupted by a hard Close.
var ErrClosed = errors.New("serve: server closed")

// instruments caches the serve-level metrics, resolved once so the request
// path performs no registry lookups. All fields are valid no-ops when the
// server runs without a registry.
type instruments struct {
	fillReqs    *obs.Counter
	extractReqs *obs.Counter
	shed        *obs.Counter
	canceled    *obs.Counter
	batches     *obs.Counter
	batchDocs   *obs.Counter
	queueDepth  *obs.Gauge
	queueWait   *obs.Histogram
	batchRun    *obs.Histogram
	fillLat     *obs.Histogram
	extractLat  *obs.Histogram
	// requestFills counts cells filled per concept across /v1/fill
	// responses ("thor.sparsity.request_fills{concept=…}") — the serving
	// counterpart of the pipeline's per-run sparsity telemetry, which a
	// batched server never sees per request. Keyed by concept; nil without
	// a registry.
	requestFills map[schema.Concept]*obs.Counter

	// Live-table telemetry (the thor.table.* families).
	tableVersion     *obs.Gauge     // current version
	tableMutations   *obs.Counter   // accepted POST /v1/table mutations (no-ops included)
	tableSwaps       *obs.Counter   // mutations that produced a new version
	tableSwapLat     *obs.Histogram // full mutation wall clock (validate→swap)
	tableBuildLat    *obs.Histogram // successor pipeline build (incremental fine-tune)
	tableInvalidated *obs.Counter   // concepts whose fine-tune state rebuilt, summed over swaps
	tableRetained    *obs.Counter   // concepts whose warm caches survived, summed over swaps
	tableRowsAdded   *obs.Counter   // rows added across swaps
	tableValsAdded   *obs.Counter   // cell values added across swaps
	tableDrains      *obs.Counter   // superseded versions whose last reader finished
	tableReaders     *obs.Gauge     // snapshot references currently held (event-sampled)
	tableLive        *obs.Gauge     // undrained versions, current included (event-sampled)
}

func newInstruments(reg *obs.Registry, table *schema.Table) instruments {
	ins := instruments{
		fillReqs:    reg.Counter("serve.fill.requests"),
		extractReqs: reg.Counter("serve.extract.requests"),
		shed:        reg.Counter("serve.shed"),
		canceled:    reg.Counter("serve.canceled"),
		batches:     reg.Counter("serve.batches"),
		batchDocs:   reg.Counter("serve.batch.docs"),
		queueDepth:  reg.Gauge("serve.queue.depth"),
		queueWait:   reg.Histogram("serve.queue.wait"),
		batchRun:    reg.Histogram("serve.batch.run"),
		fillLat:     reg.Histogram("serve.http.fill"),
		extractLat:  reg.Histogram("serve.http.extract"),

		tableVersion:     reg.Gauge("thor.table.version"),
		tableMutations:   reg.Counter("thor.table.mutations"),
		tableSwaps:       reg.Counter("thor.table.swaps"),
		tableSwapLat:     reg.Histogram("thor.table.swap"),
		tableBuildLat:    reg.Histogram("thor.table.build"),
		tableInvalidated: reg.Counter("thor.table.concepts_invalidated"),
		tableRetained:    reg.Counter("thor.table.concepts_retained"),
		tableRowsAdded:   reg.Counter("thor.table.rows_added"),
		tableValsAdded:   reg.Counter("thor.table.values_added"),
		tableDrains:      reg.Counter("thor.table.drains"),
		tableReaders:     reg.Gauge("thor.table.readers"),
		tableLive:        reg.Gauge("thor.table.live_snapshots"),
	}
	if reg != nil && table != nil {
		ins.requestFills = make(map[schema.Concept]*obs.Counter)
		for _, c := range table.Schema.NonSubject() {
			ins.requestFills[c] = reg.Counter(obs.LabeledName(
				"thor.sparsity.request_fills", "concept", string(c)))
		}
	}
	return ins
}

// Server is the online slot-filling engine: an http.Handler whose /v1/fill
// and /v1/extract endpoints coalesce concurrent requests into micro-batched
// pipeline runs over state loaded once at construction.
type Server struct {
	opts  Options
	tune  *matcher.Cache
	parse *thor.ParseCache
	ins   instruments

	// store is the live-table store: every snapshot's payload is that
	// version's persistent pipeline, constructed when the version is created
	// (initial warmup, then each mutation's build step) so the request path
	// never pays fine-tune. Requests pin the current snapshot at admission
	// and compute against it end to end; per-batch knobs (document timeout,
	// batch-scoped logger) travel via thor.RunOptions. Pipelines run with
	// SkipFill — batches only extract; each request's fill is computed
	// read-only against its admitted snapshot's table at response time.
	// Successive versions share s.tune and s.parse, so a swap re-fine-tunes
	// only the concepts the mutation's fingerprint diff invalidated.
	store *tablestore.Store
	// sc is the dispatcher's batch scratch, reused across batches; only the
	// dispatcher goroutine touches it.
	sc dispatchScratch

	queue   chan *pending
	baseCtx context.Context
	cancel  context.CancelFunc
	drainCh chan struct{}
	drain1  sync.Once
	done    chan struct{}

	// mu orders enqueue attempts against the draining flag flip: handlers
	// hold the read side across check+send, Shutdown takes the write side
	// to flip, so after the flip no handler can still be mid-enqueue and
	// the dispatcher's final drain observes every queued request.
	mu       sync.RWMutex
	draining bool

	mux *http.ServeMux

	// batchSeq numbers micro-batches for batch_id log/span correlation.
	batchSeq atomic.Uint64
	// shedSeq drives the deterministic Retry-After jitter on shed responses.
	shedSeq atomic.Uint64

	// testBatchStart, when set by tests before any request is admitted,
	// runs at the head of every batch; it lets tests hold the coalescer
	// at a deterministic point (e.g. to fill the admission queue).
	testBatchStart func()
}

// NewServer validates the options, warms the matcher cache by fine-tuning
// once, starts the coalescer goroutine and returns a ready-to-serve engine.
// The returned server is ready as soon as this returns (readyz reports ok).
func NewServer(opts Options) (*Server, error) {
	return newServer(opts, nil)
}

// newServer is NewServer with a test seam: batchStart, when non-nil, is
// installed as testBatchStart before the coalescer goroutine starts, so
// tests can hold batches at a deterministic point without racing the
// dispatcher.
func newServer(opts Options, batchStart func()) (*Server, error) {
	if opts.Table == nil {
		return nil, fmt.Errorf("serve: nil table")
	}
	if opts.Space == nil {
		return nil, fmt.Errorf("serve: nil embedding space")
	}
	if opts.Tau < 0 || opts.Tau > 1 {
		return nil, fmt.Errorf("serve: tau %v outside [0,1]", opts.Tau)
	}
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:    opts,
		tune:    matcher.NewCache(),
		parse:   thor.NewParseCache(),
		ins:     newInstruments(opts.Metrics, opts.Table),
		queue:   make(chan *pending, opts.QueueDepth),
		baseCtx: ctx,
		cancel:  cancel,
		drainCh: make(chan struct{}),
		done:    make(chan struct{}),
	}
	s.testBatchStart = batchStart
	if opts.Tracer != nil && opts.Recorder != nil {
		opts.Tracer.SetRecorder(opts.Recorder)
	}
	// Build the initial version's pipeline now (the store's Build hook): the
	// first request should pay queueing and extraction, not minutes of
	// cluster expansion. Every later version built by a mutation goes
	// through the same hook, inheriting s.tune/s.parse so unchanged concepts
	// stay warm.
	store, err := tablestore.New(tablestore.Options{
		Table:   opts.Table,
		Version: opts.TableVersion,
		Build: func(sn *tablestore.Snapshot) (any, error) {
			return thor.New(sn.Table, opts.Space, s.runConfig())
		},
		OnDrain: s.onTableDrain,
		OnSwap:  s.onTableSwap,
	})
	if err != nil {
		cancel()
		return nil, fmt.Errorf("serve: warmup fine-tune: %w", err)
	}
	s.store = store
	s.ins.tableVersion.Set(int64(store.Version()))
	s.refreshTableGauges()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/table", s.handleTable)
	s.mux.HandleFunc("/v1/fill", func(w http.ResponseWriter, r *http.Request) {
		s.handleRun(w, r, true)
	})
	s.mux.HandleFunc("/v1/extract", func(w http.ResponseWriter, r *http.Request) {
		s.handleRun(w, r, false)
	})
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	debug := obs.DebugHandler(obs.DebugOptions{
		Registry: opts.Metrics,
		Tracer:   opts.Tracer,
		Recorder: opts.Recorder,
		SLO:      opts.SLO,
		Profiler: opts.Profiler,
		Journal:  opts.Journal,
	})
	s.mux.Handle("/debug/", debug)
	s.mux.Handle("/metrics", debug)
	go s.dispatch()
	return s, nil
}

// runConfig is the persistent pipeline's configuration: warm caches,
// per-document results for demultiplexing, MaxFailureFraction 1 so one
// poisoned document quarantines alone instead of aborting its batchmates,
// and SkipFill because batches only extract — fills are computed read-only
// per request at response time. Per-batch knobs (document timeout, the
// batch-scoped logger) are passed through thor.RunOptions instead.
func (s *Server) runConfig() thor.Config {
	return thor.Config{
		Tau:                s.opts.Tau,
		Knowledge:          s.opts.Knowledge,
		Lexicon:            s.opts.Lexicon,
		Workers:            s.opts.Workers,
		TuneCache:          s.tune,
		ParseCache:         s.parse,
		CollectDocResults:  true,
		MaxFailureFraction: 1,
		SkipFill:           true,
		Metrics:            s.opts.Metrics,
		Tracer:             s.opts.Tracer,
		FaultHook:          s.opts.FaultHook,
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// statusBody builds a health/readiness payload, naming the shard when the
// server is part of a partitioned tier.
func (s *Server) statusBody(status string) map[string]any {
	body := map[string]any{"status": status}
	if s.opts.ShardID != "" {
		body["shard"] = s.opts.ShardID
	}
	return body
}

// handleHealthz reports process liveness: 200 as long as the process can
// answer HTTP at all, draining or not.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.statusBody("ok"))
}

// handleReadyz reports readiness to accept work: 503 once draining begins
// (load balancers should stop routing here), 503 "degraded" while the SLO
// engine reports a judged stream burning its budget past threshold, 200
// otherwise. The caches are warmed synchronously in NewServer, so a
// constructed server is ready; a degraded server recovers on its own once
// the violating observations age out of the SLO window.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	draining := s.draining
	s.mu.RUnlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, s.statusBody("draining"))
		return
	}
	if st := s.opts.SLO.Status(); st.Degraded {
		body := s.statusBody("degraded")
		body["violating"] = st.Violating
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, s.statusBody("ok"))
}

// statusWriter captures the response status so the handler can classify the
// request for the SLO engine after writing it.
type statusWriter struct {
	http.ResponseWriter
	status int
}

// WriteHeader records the first status written and forwards it.
func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// retryAfter returns the Retry-After value for shed responses: 1 plus a
// deterministic jitter in [0,2] seconds derived from a mixed shed counter,
// so a synchronized herd of shed clients spreads its retries instead of
// hammering back in lockstep.
func (s *Server) retryAfter() string {
	n := s.shedSeq.Add(1)
	n = (n ^ (n >> 30)) * 0xbf58476d1ce4e5b9
	return strconv.Itoa(1 + int((n>>33)%3))
}

// handleRun is the shared fill/extract handler: decode, validate, admit,
// wait for the coalescer's answer, respond. With a tracer configured it
// opens the request's root span — continuing the caller's trace when a W3C
// traceparent header is present, minting a fresh trace ID otherwise — and
// always echoes the trace ID in the X-Trace-Id response header.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request, fill bool) {
	endpoint, reqs, lat := "extract", s.ins.extractReqs, s.ins.extractLat
	if fill {
		endpoint, reqs, lat = "fill", s.ins.fillReqs, s.ins.fillLat
	}
	start := time.Now()
	// exTrace links the latency observation to its trace as the histogram's
	// exemplar, so a p99 spike on /metrics names a stitchable trace ID.
	var exTrace obs.TraceID
	defer func() { lat.ObserveTrace(time.Since(start), exTrace) }()
	reqs.Add(1)

	sw := &statusWriter{ResponseWriter: w}
	if s.opts.ShardID != "" {
		sw.Header().Set("X-Thor-Shard", s.opts.ShardID)
	}
	defer func() {
		// A request that wrote no response (client gone mid-wait) is not
		// judged: its latency reflects the client, not the server.
		if sw.status != 0 {
			s.opts.SLO.Observe(endpoint, time.Since(start), sw.status >= http.StatusInternalServerError)
		}
	}()

	ctx := r.Context()
	var traceID string
	var root *obs.ActiveSpan
	if s.opts.Tracer != nil {
		tc, ok := obs.ParseTraceparent(r.Header.Get("traceparent"))
		if !ok {
			tc = obs.TraceContext{Trace: obs.NewTraceID()}
		}
		exTrace = tc.Trace
		traceID = tc.Trace.String()
		sw.Header().Set("X-Trace-Id", traceID)
		ctx, root = s.opts.Tracer.StartTrace(ctx, tc, "http."+endpoint,
			obs.String("method", r.Method))
		defer root.End()
	}

	if r.Method != http.MethodPost {
		sw.Header().Set("Allow", http.MethodPost)
		writeError(sw, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			endpoint+" accepts POST only", traceID)
		return
	}
	var req Request
	body := http.MaxBytesReader(sw, r.Body, s.opts.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(sw, http.StatusBadRequest, CodeInvalidRequest, "decode body: "+err.Error(), traceID)
		return
	}
	// Drain any trailing bytes so keep-alive connections stay reusable.
	_, _ = io.Copy(io.Discard, body)
	if len(req.Documents) == 0 {
		writeError(sw, http.StatusBadRequest, CodeInvalidRequest, "at least one document is required", traceID)
		return
	}
	if len(req.Documents) > s.opts.MaxDocsPerRequest {
		writeError(sw, http.StatusBadRequest, CodeInvalidRequest,
			fmt.Sprintf("%d documents exceed the per-request limit of %d",
				len(req.Documents), s.opts.MaxDocsPerRequest), traceID)
		return
	}
	if req.DocTimeoutMS < 0 {
		writeError(sw, http.StatusBadRequest, CodeInvalidRequest, "doc_timeout_ms is negative", traceID)
		return
	}
	nDocs := len(req.Documents)
	p := acquirePending()
	p.ctx = r.Context()
	// Pin the live-table version at admission: the whole request — batch
	// run, demux, assignments — computes against this snapshot even if
	// mutations swap in newer versions while it is in flight. The handler
	// owns the reference and releases it on exactly one of its exit paths
	// (shed, answered, abandoned).
	p.snap = s.store.Acquire()
	for i, d := range req.Documents {
		name := d.Name
		if name == "" {
			name = fmt.Sprintf("doc-%d", i)
		}
		p.docs = append(p.docs, segment.Document{Name: name, DefaultSubject: d.DefaultSubject, Text: d.Text})
	}
	p.docTimeout = s.opts.DocTimeout
	if req.DocTimeoutMS > 0 {
		p.docTimeout = time.Duration(req.DocTimeoutMS) * time.Millisecond
	}
	p.enq = time.Now()
	if refs := obs.SpanRefs(ctx); len(refs) > 0 {
		// The ref under the root span: the coalescer parents the request's
		// queue.wait and batch spans here.
		p.ref = refs[0]
	}

	// Admission control: the read lock spans check+send so a concurrent
	// Shutdown cannot flip draining between them (see Server.mu).
	s.mu.RLock()
	if s.draining {
		s.mu.RUnlock()
		p.snap.Release()
		releasePending(p)
		s.shedResponse(sw, root, traceID, CodeDraining, "server is draining")
		return
	}
	select {
	case s.queue <- p:
		s.mu.RUnlock()
		s.ins.queueDepth.Add(1)
	default:
		s.mu.RUnlock()
		p.snap.Release()
		releasePending(p)
		s.shedResponse(sw, root, traceID, CodeOverloaded,
			fmt.Sprintf("admission queue full (%d requests)", s.opts.QueueDepth))
		return
	}

	select {
	case out := <-p.resp:
		snap := p.snap
		releasePending(p)
		demuxStart := time.Now()
		s.respond(sw, out, snap, nDocs, fill, req.Explain, traceID, root)
		snap.Release()
		if refs := obs.SpanRefs(ctx); len(refs) > 0 {
			// The demux/fill span: merging the request's share of the batch
			// and (on /v1/fill) computing its read-only assignments.
			s.opts.Tracer.RecordSpan(refs, "demux", demuxStart, time.Since(demuxStart),
				obs.String("endpoint", endpoint))
		}
	case <-r.Context().Done():
		// The client is gone; the coalescer will drop the buffered result.
		// The pending is NOT recycled: the coalescer may still send into its
		// channel, so it is left for the collector. The snapshot reference is
		// dropped here — the snapshot object itself stays valid (immutable,
		// reachable through the pending) if the coalescer is still mid-batch;
		// only the drain telemetry counts this reader as gone.
		s.ins.canceled.Add(1)
		p.snap.Release()
	}
}

// shedResponse answers one load-shed request: 503 with a jittered
// Retry-After, the shed annotated on the trace's root span (so the flight
// recorder always retains it) and logged.
func (s *Server) shedResponse(w http.ResponseWriter, root *obs.ActiveSpan, traceID, code, message string) {
	s.ins.shed.Add(1)
	root.Annotate(obs.ReasonShed, obs.String("code", code))
	if s.opts.Logger != nil {
		s.opts.Logger.Warn("request shed", obs.LogTraceID, traceID, "code", code)
	}
	w.Header().Set("Retry-After", s.retryAfter())
	writeError(w, http.StatusServiceUnavailable, code, message, traceID)
}

// respond converts one demultiplexed batch outcome into the HTTP response.
// snap is the snapshot the request was admitted under: assignments and the
// reported table version come from it, never from a version swapped in while
// the request was in flight.
func (s *Server) respond(w http.ResponseWriter, out batchOutcome, snap *tablestore.Snapshot, nDocs int, fill, explain bool, traceID string, root *obs.ActiveSpan) {
	if out.err != nil {
		root.Annotate(obs.ReasonError, obs.String("error", out.err.Error()))
		switch {
		case errors.Is(out.err, ErrClosed) || errors.Is(out.err, context.Canceled):
			writeError(w, http.StatusServiceUnavailable, CodeClosed, "server closed before the request completed", traceID)
		default:
			writeError(w, http.StatusInternalServerError, CodeInternal, out.err.Error(), traceID)
		}
		return
	}
	for _, q := range out.quarantined {
		root.Annotate(obs.ReasonQuarantine,
			obs.String("doc", q.Doc), obs.String("stage", string(q.Stage)))
	}
	merged := thor.MergeEntities(out.docs)
	resp := Response{Entities: wireEntities(merged)}
	if fill {
		// Assignments are computed read-only against the admitted snapshot's
		// table — no per-request clone, no contention, and the same output
		// a fill over a clone of that version would produce
		// (thor.Assignments is the fill pass minus the mutation).
		if explain {
			resp.Assignments = thor.AssignmentsExplained(snap.Table, merged, s.opts.Tau)
			for _, a := range resp.Assignments {
				s.opts.Metrics.Counter("thor.fills_explained." + string(a.Concept)).Add(1)
			}
		} else {
			resp.Assignments = thor.Assignments(snap.Table, merged)
		}
		for _, a := range resp.Assignments {
			s.ins.requestFills[a.Concept].Add(1)
		}
	}
	resp.Stats = buildStats(out, nDocs, merged, len(resp.Assignments))
	resp.Stats.TableVersion = snap.Version
	writeJSON(w, http.StatusOK, resp)
}

// buildStats assembles the per-request statistics from the demultiplexed
// outcome.
func buildStats(out batchOutcome, nDocs int, merged map[string][]thor.Entity, filled int) Stats {
	st := Stats{
		Documents:   nDocs,
		Completed:   len(out.docs),
		Skipped:     out.skipped,
		Filled:      filled,
		BatchDocs:   out.batchDocs,
		QueueWaitMS: float64(out.queueWait) / float64(time.Millisecond),
		RunMS:       float64(out.runDur) / float64(time.Millisecond),
	}
	for _, es := range merged {
		st.Entities += len(es)
	}
	calls := make(map[thor.Stage]int64)
	totals := make(map[thor.Stage]time.Duration)
	for _, d := range out.docs {
		st.Sentences += d.Sentences
		st.Phrases += d.Phrases
		st.Candidates += d.Candidates
		for _, sc := range d.Stages {
			calls[sc.Stage] += sc.Calls
			totals[sc.Stage] += sc.Total
		}
	}
	for _, stage := range thor.PipelineStages {
		if calls[stage] == 0 {
			continue
		}
		st.Stages = append(st.Stages, StageCost{
			Stage:   string(stage),
			Calls:   calls[stage],
			TotalMS: float64(totals[stage]) / float64(time.Millisecond),
		})
	}
	for _, q := range out.quarantined {
		st.Quarantined = append(st.Quarantined, Quarantine{
			Doc:   q.Doc,
			Index: q.Index,
			Stage: string(q.Stage),
			Error: q.Err,
		})
	}
	return st
}

// Shutdown drains gracefully: admission stops (new requests shed with 503
// draining), every queued and in-flight request completes and is answered,
// then the coalescer goroutine exits. Returns nil once drained, or ctx's
// error if it expires first (the drain continues in the background).
func (s *Server) Shutdown(ctx context.Context) error {
	s.beginDrain()
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops hard: admission stops, the in-flight batch is cancelled, and
// queued requests are answered with a server_closed error. Blocks until the
// coalescer goroutine has exited.
func (s *Server) Close() {
	s.beginDrain()
	s.cancel()
	<-s.done
}

// beginDrain flips the draining flag under the write lock (ordering against
// in-flight enqueues) and wakes the dispatcher's drain path.
func (s *Server) beginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.drain1.Do(func() {
		s.opts.Journal.Append(obs.JournalEvent{Kind: obs.EventDrain, Subject: "server", To: "begin"})
		close(s.drainCh)
	})
}
