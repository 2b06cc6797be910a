package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"thor/internal/chaos"
	"thor/internal/obs"
	"thor/internal/serve"
)

// Options configures a Router. Zero-valued fields take the defaults noted
// per field; only Shards is required.
type Options struct {
	// Shards is the tier topology. Required: at least one shard with at
	// least one backend (ParseShardMap or SingleShard build valid maps).
	Shards ShardMap
	// Client issues backend requests (default: http.Client with no global
	// timeout — per-request contexts bound each call).
	Client *http.Client
	// HealthClient issues prober requests (default: 1s-timeout client,
	// separate from Client so slow fills never starve health checks).
	HealthClient *http.Client
	// Metrics receives the router.* families (nil-safe: a nil registry
	// records nothing).
	Metrics *obs.Registry
	// Tracer records router spans and threads traceparent to backends
	// (nil disables tracing).
	Tracer *obs.Tracer
	// Journal, when set, records router state transitions — breaker flips
	// and topology loads — into the event timeline served at /debug/events.
	Journal *obs.Journal
	// Logger, when set, logs breaker transitions, brownouts and probe
	// state changes.
	Logger *slog.Logger
	// HedgeFactor scales the primary backend's observed p95 into the hedge
	// threshold (default 1.5): the hedge fires when the primary has been
	// silent for p95×factor.
	HedgeFactor float64
	// HedgeMin is the hedge threshold floor (default 20ms); it also serves
	// as the threshold before the primary's latency histogram has samples.
	HedgeMin time.Duration
	// HedgeMax is the hedge threshold ceiling (default 2s).
	HedgeMax time.Duration
	// Retry bounds transient-failure retries per shard send (default 3
	// attempts, 10ms base, 250ms cap). The Hint hook defaults to
	// chaos.RetryAfterHint so backend Retry-After advice wins over the
	// computed backoff.
	Retry chaos.Backoff
	// Breaker tunes the per-backend circuit breakers.
	Breaker BreakerConfig
	// HealthInterval is the prober period (default 500ms). Negative
	// disables the background prober; tests drive Probe directly.
	HealthInterval time.Duration
	// MaxBodyBytes bounds an inbound request body (default 8 MiB).
	MaxBodyBytes int64
	// Now is the clock (default time.Now), threaded into the breakers.
	Now func() time.Time
}

func (o Options) hedgeFactor() float64 {
	if o.HedgeFactor <= 0 {
		return 1.5
	}
	return o.HedgeFactor
}

func (o Options) hedgeMin() time.Duration {
	if o.HedgeMin <= 0 {
		return 20 * time.Millisecond
	}
	return o.HedgeMin
}

func (o Options) hedgeMax() time.Duration {
	if o.HedgeMax <= 0 {
		return 2 * time.Second
	}
	return o.HedgeMax
}

func (o Options) healthInterval() time.Duration {
	if o.HealthInterval == 0 {
		return 500 * time.Millisecond
	}
	return o.HealthInterval
}

func (o Options) maxBodyBytes() int64 {
	if o.MaxBodyBytes <= 0 {
		return 8 << 20
	}
	return o.MaxBodyBytes
}

func (o Options) retry() chaos.Backoff {
	b := o.Retry
	if b.Attempts <= 0 {
		b.Attempts = 3
	}
	if b.Base <= 0 {
		b.Base = 10 * time.Millisecond
	}
	if b.Cap <= 0 {
		b.Cap = 250 * time.Millisecond
	}
	if b.Hint == nil {
		b.Hint = chaos.RetryAfterHint
	}
	return b
}

// shardState is one shard's runtime state: its config, replicas and down
// gauge.
type shardState struct {
	cfg      ShardConfig
	backends []*backend
	urls     []string // backend URLs, rendezvous node list
	mDown    *obs.Gauge
}

// available reports whether at least one replica is selectable.
func (sh *shardState) available() bool {
	for _, b := range sh.backends {
		if b.available() {
			return true
		}
	}
	return false
}

// Router fans fill/extract requests over the shard map's backends. Build
// with New, mount via Handler, stop the prober with Close.
type Router struct {
	opts         Options
	shards       []*shardState
	client       *http.Client
	healthClient *http.Client
	mux          *http.ServeMux
	log          *slog.Logger
	retry        chaos.Backoff

	mFill        *obs.Counter
	mExtract     *obs.Counter
	hFill        *obs.Histogram
	hExtract     *obs.Histogram
	mHedges      *obs.Counter
	mHedgeWins   *obs.Counter
	mRetries     *obs.Counter
	mBrownouts   *obs.Counter
	mUnavailable *obs.Counter

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// New builds a Router over the given topology and starts its health prober
// (unless HealthInterval < 0).
func New(opts Options) (*Router, error) {
	m := opts.Shards
	if err := m.validate(); err != nil {
		return nil, err
	}
	reg := opts.Metrics
	rt := &Router{
		opts:         opts,
		client:       opts.Client,
		healthClient: opts.HealthClient,
		log:          opts.Logger,
		retry:        opts.retry(),
		mFill:        reg.Counter("router.fill.requests"),
		mExtract:     reg.Counter("router.extract.requests"),
		hFill:        reg.Histogram("router.http.fill"),
		hExtract:     reg.Histogram("router.http.extract"),
		mHedges:      reg.Counter("router.hedges"),
		mHedgeWins:   reg.Counter("router.hedge.wins"),
		mRetries:     reg.Counter("router.retries"),
		mBrownouts:   reg.Counter("router.brownouts"),
		mUnavailable: reg.Counter("router.unavailable"),
		stop:         make(chan struct{}),
	}
	if rt.client == nil {
		rt.client = &http.Client{}
	}
	if rt.healthClient == nil {
		rt.healthClient = &http.Client{Timeout: time.Second}
	}
	bcfg := opts.Breaker
	if bcfg.Now == nil {
		bcfg.Now = opts.Now
	}
	notify := func(host string, from, to BreakerState) {
		if rt.log != nil {
			rt.log.Info("breaker transition", "backend", host, "from", from.String(), "to", to.String())
		}
		opts.Journal.Append(obs.JournalEvent{
			Kind:    obs.EventBreaker,
			Subject: host,
			From:    from.String(),
			To:      to.String(),
		})
	}
	for _, sc := range m.Shards {
		sh := &shardState{
			cfg:   sc,
			urls:  sc.Backends,
			mDown: reg.Gauge(obs.LabeledName("router.shard.down", "shard", sc.ID)),
		}
		for _, u := range sc.Backends {
			sh.backends = append(sh.backends, newBackend(u, sc.ID, bcfg, reg, notify))
		}
		rt.shards = append(rt.shards, sh)
	}
	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("/v1/fill", func(w http.ResponseWriter, r *http.Request) { rt.handleProxy(w, r, true) })
	rt.mux.HandleFunc("/v1/extract", func(w http.ResponseWriter, r *http.Request) { rt.handleProxy(w, r, false) })
	rt.mux.HandleFunc("/healthz", rt.handleHealthz)
	rt.mux.HandleFunc("/readyz", rt.handleReadyz)
	rt.mux.HandleFunc("/v1/topology", rt.handleTopology)
	if opts.HealthInterval >= 0 {
		rt.wg.Add(1)
		go rt.proberLoop()
	}
	var topo []string
	for _, sh := range rt.shards {
		topo = append(topo, fmt.Sprintf("%s×%d", sh.cfg.ID, len(sh.backends)))
	}
	opts.Journal.Append(obs.JournalEvent{
		Kind:    obs.EventTopology,
		To:      "loaded",
		Subject: strings.Join(topo, ","),
		Detail:  fmt.Sprintf("%d shards", len(rt.shards)),
	})
	return rt, nil
}

// Handler returns the router's HTTP handler (/v1/fill, /v1/extract,
// /healthz, /readyz, /v1/topology). Debug and metrics endpoints are mounted
// by the caller (cmd/thor-router uses obs.DebugHandler).
func (rt *Router) Handler() http.Handler { return rt.mux }

// Close stops the health prober. In-flight requests are unaffected.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	rt.wg.Wait()
}

// Probe runs one synchronous health-probe round over every backend. The
// background prober calls it each interval; tests call it directly for
// deterministic health state.
func (rt *Router) Probe(ctx context.Context) {
	for _, sh := range rt.shards {
		for _, b := range sh.backends {
			pctx, cancel := context.WithTimeout(ctx, time.Second)
			b.probe(pctx, rt.healthClient)
			cancel()
		}
		if sh.available() {
			sh.mDown.Set(0)
		} else {
			sh.mDown.Set(1)
		}
	}
}

// proberLoop drives Probe every HealthInterval until Close.
func (rt *Router) proberLoop() {
	defer rt.wg.Done()
	t := time.NewTicker(rt.opts.healthInterval())
	defer t.Stop()
	ctx := context.Background()
	rt.Probe(ctx)
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.Probe(ctx)
		}
	}
}

// Topology snapshots the router's live view of the tier.
func (rt *Router) Topology() Topology {
	var top Topology
	for _, sh := range rt.shards {
		st := ShardTopology{ID: sh.cfg.ID, Concepts: sh.cfg.Concepts, Available: sh.available()}
		for _, b := range sh.backends {
			st.Backends = append(st.Backends, b.status())
		}
		top.Shards = append(top.Shards, st)
	}
	return top
}

// handleHealthz reports router process liveness.
func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz reports tier readiness: 200 when every shard has at least
// one selectable replica, 503 naming the down shards otherwise (a router
// that can only serve brownouts is not ready for new traffic).
func (rt *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	var down []string
	for _, sh := range rt.shards {
		if !sh.available() {
			down = append(down, sh.cfg.ID)
		}
	}
	if len(down) > 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "degraded", "down_shards": down})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleTopology serves the live topology view.
func (rt *Router) handleTopology(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, serve.CodeMethodNotAllowed, "use GET", "")
		return
	}
	writeJSON(w, http.StatusOK, rt.Topology())
}

// handleProxy is the fan-out path shared by /v1/fill and /v1/extract.
func (rt *Router) handleProxy(w http.ResponseWriter, r *http.Request, fill bool) {
	endpoint, name := "/v1/extract", "router.extract"
	counter, hist := rt.mExtract, rt.hExtract
	if fill {
		endpoint, name = "/v1/fill", "router.fill"
		counter, hist = rt.mFill, rt.hFill
	}
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, serve.CodeMethodNotAllowed, "use POST", "")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.opts.maxBodyBytes()))
	if err != nil {
		writeError(w, http.StatusBadRequest, serve.CodeInvalidRequest, "read body: "+err.Error(), "")
		return
	}
	var req serve.Request
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, serve.CodeInvalidRequest, "parse body: "+err.Error(), "")
		return
	}
	if len(req.Documents) == 0 {
		writeError(w, http.StatusBadRequest, serve.CodeInvalidRequest, "documents required", "")
		return
	}
	names := make([]string, len(req.Documents))
	for i, d := range req.Documents {
		if d.Name != "" {
			names[i] = d.Name
		} else {
			names[i] = "doc-" + strconv.Itoa(i)
		}
	}

	tc, ok := obs.ParseTraceparent(r.Header.Get("traceparent"))
	if !ok {
		tc = obs.TraceContext{Trace: obs.NewTraceID()}
	}
	ctx, root := rt.opts.Tracer.StartTrace(r.Context(), tc, name,
		obs.String("endpoint", endpoint))
	if root != nil {
		defer root.End()
	}
	traceID := tc.Trace.String()
	w.Header().Set("X-Trace-Id", traceID)

	counter.Add(1)
	start := time.Now()
	defer func() { hist.ObserveTrace(time.Since(start), tc.Trace) }()

	key := requestKey(names)
	if len(rt.shards) == 1 {
		rt.serveSingle(ctx, w, rt.shards[0], endpoint, body, key, traceID)
		return
	}
	rt.serveFanout(ctx, w, endpoint, body, key, traceID)
}

// serveSingle is the replica-only fast path: one shard, response streamed
// back verbatim — byte-identical to the chosen backend's reply.
func (rt *Router) serveSingle(ctx context.Context, w http.ResponseWriter, sh *shardState, endpoint string, body []byte, key, traceID string) {
	res := rt.sendShard(ctx, sh, endpoint, body, key)
	switch {
	case res.err == nil:
		writeRaw(w, http.StatusOK, res.contentType, res.body, res.backend)
	case res.status >= 400 && res.body != nil:
		// Permanent backend verdict (4xx): pass it through verbatim.
		writeRaw(w, res.status, res.contentType, res.body, res.backend)
	default:
		rt.mUnavailable.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, CodeUnavailable,
			fmt.Sprintf("shard %s unavailable: %v", sh.cfg.ID, res.err), traceID)
	}
}

// serveFanout sends the request to one replica of every shard and merges
// the partial responses; failed shards degrade to markers (brownout) as
// long as at least one shard answered.
func (rt *Router) serveFanout(ctx context.Context, w http.ResponseWriter, endpoint string, body []byte, key, traceID string) {
	results := make([]shardResult, len(rt.shards))
	var wg sync.WaitGroup
	for i, sh := range rt.shards {
		wg.Add(1)
		go func(i int, sh *shardState) {
			defer wg.Done()
			results[i] = rt.sendShard(ctx, sh, endpoint, body, key)
		}(i, sh)
	}
	wg.Wait()

	var parts []serve.Response
	var degraded []DegradedShard
	var permanent *shardResult
	for i := range results {
		res := &results[i]
		if res.err == nil {
			var part serve.Response
			if err := json.Unmarshal(res.body, &part); err != nil {
				res.err = fmt.Errorf("shard %s: decode response: %w", res.shard.cfg.ID, err)
			} else {
				parts = append(parts, part)
				continue
			}
		}
		if res.status >= 400 && res.status < 500 && permanent == nil {
			permanent = res
		}
		degraded = append(degraded, DegradedShard{
			Shard:    res.shard.cfg.ID,
			Concepts: res.shard.cfg.Concepts,
			Reason:   res.err.Error(),
		})
	}
	if len(parts) == 0 {
		if permanent != nil {
			// Every shard rejected the request itself (e.g. 400): relay the
			// first verdict instead of masking it as an outage.
			writeRaw(w, permanent.status, permanent.contentType, permanent.body, permanent.backend)
			return
		}
		rt.mUnavailable.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, CodeUnavailable, "all shards unavailable", traceID)
		return
	}
	if len(degraded) > 0 {
		rt.mBrownouts.Add(1)
		if rt.log != nil {
			rt.log.Warn("brownout response", "degraded_shards", len(degraded))
		}
	}
	writeJSON(w, http.StatusOK, Response{Response: mergeResponses(parts), Degraded: degraded})
}

// shardResult is one shard's contribution to a request.
type shardResult struct {
	shard       *shardState
	backend     string // host that served the response
	status      int
	contentType string
	body        []byte
	err         error
}

// sendShard delivers the request to one replica of sh, retrying transient
// failures with rotation across replicas, hedging slow calls. On success
// err is nil and body holds the backend's verbatim response; a permanent
// backend verdict surfaces as err + status/body for pass-through; transient
// exhaustion surfaces as err alone.
func (rt *Router) sendShard(ctx context.Context, sh *shardState, endpoint string, body []byte, key string) shardResult {
	order := rt.preferenceOrder(sh, key)
	var last callResult
	err := chaos.Retry(ctx, rt.retry, "shard:"+sh.cfg.ID, func(attempt int) error {
		if attempt > 0 {
			rt.mRetries.Add(1)
		}
		res, err := rt.attemptShard(ctx, sh, order, attempt, endpoint, body)
		last = res
		return err
	})
	out := shardResult{shard: sh, backend: last.backend, status: last.status, contentType: last.contentType, body: last.body, err: err}
	if err != nil {
		var he *errHTTP
		if errors.As(err, &he) {
			out.status, out.contentType, out.body, out.backend = he.res.status, he.res.contentType, he.res.body, he.res.backend
		} else {
			out.status, out.body = 0, nil
		}
	}
	return out
}

// preferenceOrder ranks sh's replicas for a request key: health class first
// (healthy, then degraded ordered by burn rate, down last — the prober's
// belief may be stale, so down replicas remain last-resort candidates
// rather than excluded), rendezvous order within a class for cache
// affinity.
func (rt *Router) preferenceOrder(sh *shardState, key string) []*backend {
	rank := rendezvousOrder(key, sh.urls)
	type cand struct {
		b     *backend
		class healthClass
		burn  float64
		pos   int // rendezvous position
	}
	cands := make([]cand, len(rank))
	for pos, idx := range rank {
		b := sh.backends[idx]
		h, burn, _ := b.classify()
		cands[pos] = cand{b: b, class: h, burn: burn, pos: pos}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].class != cands[j].class {
			return cands[i].class < cands[j].class
		}
		if cands[i].class == healthDegraded && cands[i].burn != cands[j].burn {
			return cands[i].burn < cands[j].burn
		}
		return cands[i].pos < cands[j].pos
	})
	out := make([]*backend, len(cands))
	for i, c := range cands {
		out[i] = c.b
	}
	return out
}

// attemptShard issues one (possibly hedged) call for one retry attempt:
// the preference list is rotated by attempt so consecutive retries land on
// different replicas, and the first replica whose breaker admits the call
// becomes the primary.
func (rt *Router) attemptShard(ctx context.Context, sh *shardState, order []*backend, attempt int, endpoint string, body []byte) (callResult, error) {
	n := len(order)
	rot := make([]*backend, n)
	for i := 0; i < n; i++ {
		rot[i] = order[(i+attempt)%n]
	}
	var primary *backend
	var fallbacks []*backend
	for i, b := range rot {
		if b.brk.Allow() {
			primary = b
			fallbacks = rot[i+1:]
			break
		}
	}
	if primary == nil {
		return callResult{}, chaos.MarkTransient(fmt.Errorf("shard %s: all breakers open", sh.cfg.ID))
	}
	return rt.hedgedCall(ctx, primary, fallbacks, endpoint, body, attempt)
}

// hedgedCall issues the request to primary and, if the reply is still
// outstanding after the hedge threshold, to the first admissible fallback.
// The first success wins and the loser's context is cancelled; if all
// started calls fail, the first failure is returned (the retry layer
// rotates and backs off).
func (rt *Router) hedgedCall(ctx context.Context, primary *backend, fallbacks []*backend, endpoint string, body []byte, attempt int) (callResult, error) {
	type done struct {
		res callResult
		err error
		b   *backend
	}
	ch := make(chan done, 2)
	var cancels []context.CancelFunc
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()
	launch := func(b *backend, role string) {
		cctx, cancel := context.WithCancel(ctx)
		cancels = append(cancels, cancel)
		go func() {
			res, err := rt.callBackend(cctx, b, endpoint, body, attempt, role)
			ch <- done{res: res, err: err, b: b}
		}()
	}
	launch(primary, "primary")
	inflight := 1

	var hedgeC <-chan time.Time
	if len(fallbacks) > 0 {
		t := time.NewTimer(rt.hedgeDelay(ctx, primary))
		defer t.Stop()
		hedgeC = t.C
	}
	var hedge *backend
	var firstRes callResult
	var firstErr error
	for {
		select {
		case d := <-ch:
			inflight--
			if d.err == nil {
				if hedge != nil && d.b == hedge {
					rt.mHedgeWins.Add(1)
				}
				return d.res, nil
			}
			if firstErr == nil {
				firstRes, firstErr = d.res, d.err
			}
			if inflight == 0 {
				// Primary failed fast and the hedge never fired (or both
				// failed): report to the retry layer rather than waiting
				// out the hedge timer.
				return firstRes, firstErr
			}
		case <-hedgeC:
			hedgeC = nil
			for _, b := range fallbacks {
				if b.brk.Allow() {
					hedge = b
					break
				}
			}
			if hedge == nil {
				continue
			}
			rt.mHedges.Add(1)
			launch(hedge, "hedge")
			inflight++
		case <-ctx.Done():
			return callResult{}, ctx.Err()
		}
	}
}

// hedgeDelay derives the hedge threshold for a call to primary: its
// router-observed p95 scaled by HedgeFactor, clamped to [HedgeMin,
// HedgeMax], and — deadline-aware — capped at half the remaining budget so
// a fired hedge still has time to answer.
func (rt *Router) hedgeDelay(ctx context.Context, primary *backend) time.Duration {
	d := rt.opts.hedgeMin()
	if p95 := primary.p95(); p95 > 0 {
		d = time.Duration(float64(p95) * rt.opts.hedgeFactor())
	}
	if min := rt.opts.hedgeMin(); d < min {
		d = min
	}
	if max := rt.opts.hedgeMax(); d > max {
		d = max
	}
	if dl, ok := ctx.Deadline(); ok {
		if half := time.Until(dl) / 2; half > 0 && d > half {
			d = half
		}
	}
	return d
}

// callResult is one backend call's outcome.
type callResult struct {
	backend     string
	status      int
	contentType string
	body        []byte
}

// errHTTP wraps a permanent (non-retryable) backend HTTP verdict so the
// response can be relayed verbatim. Not transient: chaos.Retry returns it
// immediately.
type errHTTP struct {
	res callResult
}

// Error implements error.
func (e *errHTTP) Error() string {
	return fmt.Sprintf("backend %s: http %d", e.res.backend, e.res.status)
}

// callBackend issues one HTTP call: child span tagged with the chosen
// backend/shard and the call's retry-attempt and hedge role (so stitched
// trace trees attribute every branch, winning or losing), traceparent
// injection, latency observation, breaker accounting, and error
// classification (connection failures and 5xx transient, 503 additionally
// carrying the server's Retry-After hint; other 4xx permanent).
func (rt *Router) callBackend(ctx context.Context, b *backend, endpoint string, body []byte, attempt int, role string) (callResult, error) {
	sctx, span := rt.opts.Tracer.StartSpanCtx(ctx, "router.backend",
		obs.String("backend", b.host),
		obs.String("shard", b.shard),
		obs.String("role", role),
		obs.String("attempt", strconv.Itoa(attempt)))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+endpoint, bytes.NewReader(body))
	if err != nil {
		if span != nil {
			span.End()
		}
		return callResult{backend: b.host}, fmt.Errorf("backend %s: %w", b.host, err)
	}
	req.Header.Set("Content-Type", "application/json")
	if refs := obs.SpanRefs(sctx); len(refs) > 0 && !refs[0].Trace.IsZero() && !refs[0].Parent.IsZero() {
		req.Header.Set("traceparent", obs.TraceContext{Trace: refs[0].Trace, Span: refs[0].Parent}.Traceparent())
	}
	start := time.Now()
	resp, err := rt.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// Abandoned by our own cancellation (hedge loser, client gone):
			// says nothing about the backend, so neither the breaker nor
			// the latency histogram should count it.
			if span != nil {
				span.Annotate("router.backend.cancelled")
				span.End()
			}
			b.observeCancelled()
			return callResult{backend: b.host}, ctx.Err()
		}
		if span != nil {
			span.Annotate("router.backend.failed", obs.String("reason", err.Error()))
			span.End()
		}
		b.observe(time.Since(start), false)
		return callResult{backend: b.host}, chaos.MarkTransient(fmt.Errorf("backend %s: %w", b.host, err))
	}
	rbody, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	if span != nil {
		span.Annotate("router.backend.response", obs.String("status", strconv.Itoa(resp.StatusCode)))
		span.End()
	}
	if rerr != nil {
		if ctx.Err() != nil {
			b.observeCancelled()
			return callResult{backend: b.host}, ctx.Err()
		}
		b.observe(d, false)
		return callResult{backend: b.host}, chaos.MarkTransient(fmt.Errorf("backend %s: read response: %w", b.host, rerr))
	}
	res := callResult{backend: b.host, status: resp.StatusCode, contentType: resp.Header.Get("Content-Type"), body: rbody}
	switch {
	case resp.StatusCode == http.StatusOK:
		b.observe(d, true)
		return res, nil
	case resp.StatusCode == http.StatusServiceUnavailable:
		b.observe(d, false)
		err := chaos.MarkTransient(fmt.Errorf("backend %s: 503 %s", b.host, strings.TrimSpace(string(rbody))))
		if ra := parseRetryAfterHeader(resp.Header.Get("Retry-After")); ra > 0 {
			err = chaos.WithRetryAfter(err, ra)
		}
		return res, err
	case resp.StatusCode >= 500:
		b.observe(d, false)
		return res, chaos.MarkTransient(fmt.Errorf("backend %s: http %d", b.host, resp.StatusCode))
	default:
		// A 4xx is the backend judging the request, not failing: the
		// backend is healthy and the verdict is final.
		b.observe(d, true)
		return res, &errHTTP{res: res}
	}
}

// parseRetryAfterHeader parses a delay-seconds Retry-After value (the only
// form thord emits); 0 when absent or unparseable.
func parseRetryAfterHeader(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// writeRaw relays a backend response verbatim, tagging which backend served
// it.
func writeRaw(w http.ResponseWriter, status int, contentType string, body []byte, backend string) {
	if contentType != "" {
		w.Header().Set("Content-Type", contentType)
	}
	if backend != "" {
		w.Header().Set("X-Thor-Backend", backend)
	}
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// mergeResponses combines per-shard partial responses deterministically:
// entity lists concatenate in shard-map order, assignments sort by
// (subject, concept, value), per-request counters sum where shards
// contribute disjoint work (candidates, entities, filled) and take the
// maximum where they repeat it (documents, sentences, batch cost).
func mergeResponses(parts []serve.Response) serve.Response {
	out := serve.Response{Entities: map[string][]serve.Entity{}}
	for _, p := range parts {
		for subj, es := range p.Entities {
			out.Entities[subj] = append(out.Entities[subj], es...)
		}
		out.Assignments = append(out.Assignments, p.Assignments...)
		s, t := p.Stats, &out.Stats
		t.Candidates += s.Candidates
		t.Entities += s.Entities
		t.Filled += s.Filled
		t.Quarantined = append(t.Quarantined, s.Quarantined...)
		maxInt(&t.Documents, s.Documents)
		maxInt(&t.Completed, s.Completed)
		maxInt(&t.Skipped, s.Skipped)
		maxInt(&t.Sentences, s.Sentences)
		maxInt(&t.Phrases, s.Phrases)
		maxInt(&t.BatchDocs, s.BatchDocs)
		if s.QueueWaitMS > t.QueueWaitMS {
			t.QueueWaitMS = s.QueueWaitMS
		}
		if s.RunMS > t.RunMS {
			t.RunMS = s.RunMS
		}
	}
	sort.SliceStable(out.Assignments, func(i, j int) bool {
		a, b := out.Assignments[i], out.Assignments[j]
		if a.Subject != b.Subject {
			return a.Subject < b.Subject
		}
		if a.Concept != b.Concept {
			return a.Concept < b.Concept
		}
		return a.Value < b.Value
	})
	return out
}

func maxInt(dst *int, v int) {
	if v > *dst {
		*dst = v
	}
}
