package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thor/internal/obs"
	"thor/internal/serve"
)

// fakeThord emulates a thord backend: canned /v1/* responses with
// configurable status, delay and Retry-After, plus /readyz and /metrics.
type fakeThord struct {
	name string
	ts   *httptest.Server

	mu              sync.Mutex
	body            []byte
	status          int
	retryAfter      string
	delay           time.Duration
	failN           int // next failN /v1/* calls use status/retryAfter, then 200
	readyStatus     int
	readyBody       string
	lastTraceparent string

	calls    atomic.Int64
	canceled atomic.Int64
}

// newFakeThord starts a fake backend whose 200 responses carry the marker
// name (so tests can tell which replica served a request).
func newFakeThord(t *testing.T, name string) *fakeThord {
	t.Helper()
	f := &fakeThord{
		name:        name,
		body:        []byte(`{"entities":{"` + name + `":[]},"stats":{"documents":1,"completed":1}}` + "\n"),
		status:      http.StatusOK,
		readyStatus: http.StatusOK,
		readyBody:   `{"status":"ok"}`,
	}
	f.ts = httptest.NewServer(http.HandlerFunc(f.handle))
	t.Cleanup(f.ts.Close)
	return f
}

func (f *fakeThord) handle(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/readyz":
		f.mu.Lock()
		st, body := f.readyStatus, f.readyBody
		f.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(st)
		io.WriteString(w, body)
	case "/metrics":
		io.WriteString(w, "# TYPE thor_slo_burn_rate gauge\nthor_slo_burn_rate{stream=\"avail\"} 0.25\n# EOF\n")
	case "/v1/fill", "/v1/extract":
		f.calls.Add(1)
		// Consume the body like a real backend would: the net/http server
		// only watches for client disconnects (cancelling r.Context())
		// once the request body has been read.
		io.Copy(io.Discard, r.Body)
		f.mu.Lock()
		f.lastTraceparent = r.Header.Get("traceparent")
		status, body, ra, delay := f.status, f.body, f.retryAfter, f.delay
		if f.failN > 0 {
			// failN sheds the next N calls regardless of the steady status.
			f.failN--
			status = http.StatusServiceUnavailable
		}
		f.mu.Unlock()
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
				f.canceled.Add(1)
				return
			}
		}
		if ra != "" && status != http.StatusOK {
			w.Header().Set("Retry-After", ra)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		if status == http.StatusOK {
			w.Write(body)
		} else {
			io.WriteString(w, `{"error":{"code":"overloaded","message":"shed"}}`)
		}
	default:
		http.NotFound(w, r)
	}
}

// set applies a mutation under the backend's lock.
func (f *fakeThord) set(fn func(*fakeThord)) {
	f.mu.Lock()
	fn(f)
	f.mu.Unlock()
}

// newTestRouter builds a prober-less router over the given backends with
// fast test timings.
func newTestRouter(t *testing.T, reg *obs.Registry, opts Options, urls ...string) *Router {
	t.Helper()
	if opts.Shards.Shards == nil {
		opts.Shards = SingleShard(urls)
	}
	opts.Metrics = reg
	opts.HealthInterval = -1
	if opts.Retry.Attempts == 0 {
		opts.Retry.Attempts = 3
	}
	if opts.Retry.Base == 0 {
		opts.Retry.Base = time.Millisecond
		opts.Retry.Cap = 5 * time.Millisecond
	}
	rt, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// fillBody builds a /v1/fill request body over the given document names.
func fillBody(t *testing.T, names ...string) []byte {
	t.Helper()
	req := serve.Request{}
	for _, n := range names {
		req.Documents = append(req.Documents, serve.Document{Name: n, Text: "Some text about " + n + "."})
	}
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return buf
}

// post sends body to the router and returns status, raw bytes and headers.
func post(t *testing.T, h http.Handler, path string, body []byte) (int, []byte, http.Header) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), rec.Header()
}

func TestSingleShardPassthroughVerbatim(t *testing.T) {
	f := newFakeThord(t, "b1")
	rt := newTestRouter(t, obs.NewRegistry(), Options{}, f.ts.URL)

	status, raw, hdr := post(t, rt.Handler(), "/v1/fill", fillBody(t, "doc-a"))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	f.mu.Lock()
	want := append([]byte(nil), f.body...)
	f.mu.Unlock()
	if !bytes.Equal(raw, want) {
		t.Fatalf("response not byte-identical to backend reply:\n got %q\nwant %q", raw, want)
	}
	if hdr.Get("X-Thor-Backend") == "" {
		t.Fatal("missing X-Thor-Backend header")
	}
	if hdr.Get("X-Trace-Id") == "" {
		t.Fatal("missing X-Trace-Id header")
	}
}

func TestReplicaAffinity(t *testing.T) {
	a, b := newFakeThord(t, "a"), newFakeThord(t, "b")
	rt := newTestRouter(t, obs.NewRegistry(), Options{}, a.ts.URL, b.ts.URL)

	body := fillBody(t, "corpus-1", "corpus-2")
	for i := 0; i < 6; i++ {
		status, raw, _ := post(t, rt.Handler(), "/v1/fill", body)
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, status, raw)
		}
	}
	ca, cb := a.calls.Load(), b.calls.Load()
	if ca+cb != 6 || (ca != 0 && cb != 0) {
		t.Fatalf("same-key requests split across replicas: a=%d b=%d (want all on one)", ca, cb)
	}
}

func TestFailoverToSecondReplica(t *testing.T) {
	a, b := newFakeThord(t, "a"), newFakeThord(t, "b")
	reg := obs.NewRegistry()
	rt := newTestRouter(t, reg, Options{}, a.ts.URL, b.ts.URL)

	body := fillBody(t, "failover-doc")
	status, raw, hdr := post(t, rt.Handler(), "/v1/fill", body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	primary := hdr.Get("X-Thor-Backend")

	// Kill whichever replica served the request; the same key must now be
	// served by the other, with zero client-visible failures.
	var killed, survivor *fakeThord = a, b
	if strings.Contains(b.ts.URL, primary) {
		killed, survivor = b, a
	}
	killed.ts.CloseClientConnections()
	killed.ts.Close()

	for i := 0; i < 3; i++ {
		status, raw, hdr = post(t, rt.Handler(), "/v1/fill", body)
		if status != http.StatusOK {
			t.Fatalf("after kill, request %d: status %d: %s", i, status, raw)
		}
		if got := hdr.Get("X-Thor-Backend"); !strings.Contains(survivor.ts.URL, got) {
			t.Fatalf("after kill, served by %q, want survivor %q", got, survivor.ts.URL)
		}
	}
	if reg.Counter("router.retries").Value() == 0 {
		t.Fatal("failover should have recorded at least one retry")
	}
}

func TestHedgeFiresOnSlowPrimaryAndCancelsLoser(t *testing.T) {
	a, b := newFakeThord(t, "a"), newFakeThord(t, "b")
	reg := obs.NewRegistry()
	rt := newTestRouter(t, reg, Options{HedgeMin: 30 * time.Millisecond}, a.ts.URL, b.ts.URL)

	body := fillBody(t, "hedge-doc")
	_, _, hdr := post(t, rt.Handler(), "/v1/fill", body)
	primary := a
	if strings.Contains(b.ts.URL, hdr.Get("X-Thor-Backend")) {
		primary = b
	}

	// Make only the primary slow: the hedge must fire to the other replica
	// and win, and the abandoned primary call must observe cancellation.
	primary.set(func(f *fakeThord) { f.delay = 2 * time.Second })
	start := time.Now()
	status, raw, hdr := post(t, rt.Handler(), "/v1/fill", body)
	elapsed := time.Since(start)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if got := hdr.Get("X-Thor-Backend"); strings.Contains(primary.ts.URL, got) {
		t.Fatalf("slow primary %q won, want the hedge replica", got)
	}
	if elapsed > time.Second {
		t.Fatalf("hedged request took %v, want well under the primary's 2s stall", elapsed)
	}
	if reg.Counter("router.hedges").Value() == 0 || reg.Counter("router.hedge.wins").Value() == 0 {
		t.Fatalf("hedge metrics: hedges=%d wins=%d, want both > 0",
			reg.Counter("router.hedges").Value(), reg.Counter("router.hedge.wins").Value())
	}
	// The loser is cancelled, not left running to completion.
	deadline := time.Now().Add(2 * time.Second)
	for primary.canceled.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if primary.canceled.Load() == 0 {
		t.Fatal("hedge loser was not cancelled")
	}
}

// TestHedgeDelay pins the hedge threshold without sleeping: the floor
// before any samples, p95 × factor at a known bucket, the HedgeMax ceiling
// and the half-remaining-deadline cap. With a registry, the threshold reads
// the router.backend.latency series /metrics exposes.
func TestHedgeDelay(t *testing.T) {
	for _, reg := range []*obs.Registry{nil, obs.NewRegistry()} {
		rt := newTestRouter(t, reg, Options{}, "http://127.0.0.1:1")
		b := rt.shards[0].backends[0]
		ctx := context.Background()
		if d := rt.hedgeDelay(ctx, b); d != 20*time.Millisecond {
			t.Errorf("no samples: threshold %v, want the 20ms floor", d)
		}
		for i := 0; i < 100; i++ {
			b.observe(40*time.Millisecond, true)
		}
		// 40ms lands in the bucket bounded by 65.536ms, scaled by 1.5.
		if d := rt.hedgeDelay(ctx, b); d != 98304*time.Microsecond {
			t.Errorf("p95 × factor: threshold %v, want 98.304ms", d)
		}
		dctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
		if d := rt.hedgeDelay(dctx, b); d > 50*time.Millisecond || d < 25*time.Millisecond {
			t.Errorf("deadline cap: threshold %v, want just under half of 100ms", d)
		}
		cancel()
		if reg != nil {
			if n := reg.Histogram(obs.LabeledName("router.backend.latency", "backend", b.host)).Count(); n != 100 {
				t.Errorf("router.backend.latency count = %d, want the 100 hedging read", n)
			}
		}
	}
	rt := newTestRouter(t, nil, Options{HedgeMax: 50 * time.Millisecond}, "http://127.0.0.1:1")
	b := rt.shards[0].backends[0]
	for i := 0; i < 100; i++ {
		b.observe(40*time.Millisecond, true)
	}
	if d := rt.hedgeDelay(context.Background(), b); d != 50*time.Millisecond {
		t.Errorf("ceiling: threshold %v, want HedgeMax 50ms", d)
	}
}

func TestAllReplicasDownUnavailable(t *testing.T) {
	a, b := newFakeThord(t, "a"), newFakeThord(t, "b")
	a.ts.Close()
	b.ts.Close()
	reg := obs.NewRegistry()
	rt := newTestRouter(t, reg, Options{}, a.ts.URL, b.ts.URL)

	status, raw, hdr := post(t, rt.Handler(), "/v1/fill", fillBody(t, "doc"))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d: %s", status, raw)
	}
	var eb serve.ErrorBody
	if err := json.Unmarshal(raw, &eb); err != nil || eb.Error.Code != CodeUnavailable {
		t.Fatalf("error envelope = %s (err %v), want code %q", raw, err, CodeUnavailable)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("503 must carry Retry-After")
	}
	if reg.Counter("router.unavailable").Value() == 0 {
		t.Fatal("router.unavailable not incremented")
	}
}

func TestBreakerOpensThenRecovers(t *testing.T) {
	f := newFakeThord(t, "only")
	reg := obs.NewRegistry()
	rt := newTestRouter(t, reg, Options{
		Breaker: BreakerConfig{Threshold: 2, Cooldown: 50 * time.Millisecond},
	}, f.ts.URL)

	// Backend sheds everything: requests fail, breaker opens.
	f.set(func(f *fakeThord) { f.status = http.StatusServiceUnavailable })
	for i := 0; i < 3; i++ {
		post(t, rt.Handler(), "/v1/fill", fillBody(t, "doc"))
	}
	top := rt.Topology()
	if got := top.Shards[0].Backends[0].Breaker; got != "open" {
		t.Fatalf("breaker = %q, want open", got)
	}
	if top.Shards[0].Available {
		t.Fatal("shard with only an open-breaker backend should be unavailable")
	}
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d, want 503 while the only shard is breaker-open", rec.Code)
	}

	// Backend recovers; after the cooldown a half-open probe closes the
	// breaker and traffic resumes.
	f.set(func(f *fakeThord) { f.status = http.StatusOK })
	time.Sleep(60 * time.Millisecond)
	status, raw, _ := post(t, rt.Handler(), "/v1/fill", fillBody(t, "doc"))
	if status != http.StatusOK {
		t.Fatalf("post-recovery status %d: %s", status, raw)
	}
	if got := rt.Topology().Shards[0].Backends[0].Breaker; got != "closed" {
		t.Fatalf("post-recovery breaker = %q, want closed", got)
	}
	if reg.Counter(obs.LabeledName("router.breaker.transitions", "backend", hostOf(f.ts.URL))).Value() < 3 {
		t.Fatal("breaker transitions not visible in metrics")
	}
}

func TestBrownoutMultiShard(t *testing.T) {
	a, b := newFakeThord(t, "subj-a"), newFakeThord(t, "subj-b")
	reg := obs.NewRegistry()
	m := ShardMap{Shards: []ShardConfig{
		{ID: "anatomy", Concepts: []string{"Anatomy"}, Backends: []string{a.ts.URL}},
		{ID: "complication", Concepts: []string{"Complication"}, Backends: []string{b.ts.URL}},
	}}
	rt := newTestRouter(t, reg, Options{Shards: m})

	// Both shards up: merged response, no degraded marker.
	status, raw, _ := post(t, rt.Handler(), "/v1/fill", fillBody(t, "doc"))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	var resp Response
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(resp.Degraded) != 0 {
		t.Fatalf("degraded = %+v, want none", resp.Degraded)
	}
	if _, ok := resp.Entities["subj-a"]; !ok {
		t.Fatalf("missing shard A entities: %s", raw)
	}
	if _, ok := resp.Entities["subj-b"]; !ok {
		t.Fatalf("missing shard B entities: %s", raw)
	}

	// Shard B down: partial results with its degraded marker, not failure.
	b.ts.CloseClientConnections()
	b.ts.Close()
	status, raw, _ = post(t, rt.Handler(), "/v1/fill", fillBody(t, "doc"))
	if status != http.StatusOK {
		t.Fatalf("brownout status %d, want 200: %s", status, raw)
	}
	resp = Response{}
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(resp.Degraded) != 1 || resp.Degraded[0].Shard != "complication" {
		t.Fatalf("degraded = %+v, want the complication shard", resp.Degraded)
	}
	if got := resp.Degraded[0].Concepts; len(got) != 1 || got[0] != "Complication" {
		t.Fatalf("degraded concepts = %v, want [Complication]", got)
	}
	if resp.Degraded[0].Reason == "" {
		t.Fatal("degraded marker missing reason")
	}
	if _, ok := resp.Entities["subj-a"]; !ok {
		t.Fatalf("brownout lost the healthy shard's entities: %s", raw)
	}
	if reg.Counter("router.brownouts").Value() != 1 {
		t.Fatalf("router.brownouts = %d, want 1", reg.Counter("router.brownouts").Value())
	}

	// Both shards down: no partial possible, 503.
	a.ts.CloseClientConnections()
	a.ts.Close()
	status, raw, _ = post(t, rt.Handler(), "/v1/fill", fillBody(t, "doc"))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("all-down status %d, want 503: %s", status, raw)
	}
}

func TestTraceparentPropagation(t *testing.T) {
	f := newFakeThord(t, "b1")
	tracer := obs.NewTracer(64)
	rt := newTestRouter(t, obs.NewRegistry(), Options{Tracer: tracer}, f.ts.URL)

	inbound := "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01"
	req := httptest.NewRequest(http.MethodPost, "/v1/fill", bytes.NewReader(fillBody(t, "doc")))
	req.Header.Set("traceparent", inbound)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Trace-Id"); got != "0123456789abcdef0123456789abcdef" {
		t.Fatalf("X-Trace-Id = %q, want the inbound trace ID", got)
	}
	f.mu.Lock()
	got := f.lastTraceparent
	f.mu.Unlock()
	tc, ok := obs.ParseTraceparent(got)
	if !ok {
		t.Fatalf("backend saw invalid traceparent %q", got)
	}
	if tc.Trace.String() != "0123456789abcdef0123456789abcdef" {
		t.Fatalf("backend trace ID %s, want the inbound trace", tc.Trace)
	}
	if tc.Span.String() == "00f067aa0ba902b7" {
		t.Fatal("backend parent span must be a fresh router span, not the inbound span")
	}
}

func TestPermanent4xxPassthroughNoRetry(t *testing.T) {
	f := newFakeThord(t, "b1")
	f.set(func(f *fakeThord) { f.status = http.StatusBadRequest })
	rt := newTestRouter(t, obs.NewRegistry(), Options{}, f.ts.URL)

	status, raw, _ := post(t, rt.Handler(), "/v1/fill", fillBody(t, "doc"))
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want the backend's 400", status)
	}
	if !strings.Contains(string(raw), "overloaded") {
		t.Fatalf("body not relayed verbatim: %s", raw)
	}
	if got := f.calls.Load(); got != 1 {
		t.Fatalf("backend called %d times, want exactly 1 (no retry of permanent verdicts)", got)
	}
}

func TestRetryOn503ThenSuccess(t *testing.T) {
	f := newFakeThord(t, "b1")
	// First two calls shed, then recover.
	f.set(func(f *fakeThord) { f.failN = 2 })
	reg := obs.NewRegistry()
	rt := newTestRouter(t, reg, Options{}, f.ts.URL)

	status, raw, _ := post(t, rt.Handler(), "/v1/fill", fillBody(t, "doc"))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if reg.Counter("router.retries").Value() == 0 {
		t.Fatal("retries not recorded")
	}
}

func TestProberClassifiesBackends(t *testing.T) {
	healthy := newFakeThord(t, "h")
	degraded := newFakeThord(t, "d")
	degraded.set(func(f *fakeThord) {
		f.readyStatus = http.StatusServiceUnavailable
		f.readyBody = `{"status":"degraded","violating":["latency_p99"]}`
	})
	down := newFakeThord(t, "x")
	down.ts.Close()

	rt := newTestRouter(t, obs.NewRegistry(), Options{}, healthy.ts.URL, degraded.ts.URL, down.ts.URL)
	rt.Probe(context.Background())

	top := rt.Topology()
	got := map[string]string{}
	for _, b := range top.Shards[0].Backends {
		got[b.URL] = b.Health
	}
	if got[healthy.ts.URL] != "healthy" {
		t.Fatalf("healthy backend classified %q", got[healthy.ts.URL])
	}
	if got[degraded.ts.URL] != "degraded" {
		t.Fatalf("degraded backend classified %q", got[degraded.ts.URL])
	}
	if got[down.ts.URL] != "down" {
		t.Fatalf("down backend classified %q", got[down.ts.URL])
	}
	// Burn rate scraped from /metrics.
	for _, b := range top.Shards[0].Backends {
		if b.URL == healthy.ts.URL && b.BurnRate != 0.25 {
			t.Fatalf("burn rate = %v, want 0.25 from the fake exposition", b.BurnRate)
		}
	}

	// Preference order puts the healthy replica first regardless of
	// rendezvous rank.
	sh := rt.shards[0]
	for trial := 0; trial < 8; trial++ {
		order := rt.preferenceOrder(sh, fmt.Sprintf("key-%d", trial))
		if order[0].url != healthy.ts.URL {
			t.Fatalf("trial %d: first preference %q, want the healthy backend", trial, order[0].url)
		}
		if order[2].url != down.ts.URL {
			t.Fatalf("trial %d: last preference %q, want the down backend", trial, order[2].url)
		}
	}
}

func TestMergeResponsesDeterministic(t *testing.T) {
	partA := serve.Response{
		Entities: map[string][]serve.Entity{
			"Cholera": {{Phrase: "small intestine", Concept: "Anatomy", Doc: "cho"}},
		},
		Stats: serve.Stats{Documents: 2, Completed: 2, Sentences: 5, Candidates: 3, Entities: 1, Filled: 1, RunMS: 4},
	}
	partB := serve.Response{
		Entities: map[string][]serve.Entity{
			"Cholera":      {{Phrase: "dehydration", Concept: "Complication", Doc: "cho"}},
			"Tuberculosis": {{Phrase: "lungs", Concept: "Anatomy", Doc: "tb"}},
		},
		Stats: serve.Stats{Documents: 2, Completed: 1, Sentences: 5, Candidates: 2, Entities: 2, Filled: 2, RunMS: 9},
	}
	merged := mergeResponses([]serve.Response{partA, partB})
	if len(merged.Entities["Cholera"]) != 2 || len(merged.Entities["Tuberculosis"]) != 1 {
		t.Fatalf("entities merged wrong: %+v", merged.Entities)
	}
	if merged.Stats.Documents != 2 || merged.Stats.Completed != 2 {
		t.Fatalf("documents/completed = %d/%d, want max 2/2", merged.Stats.Documents, merged.Stats.Completed)
	}
	if merged.Stats.Candidates != 5 || merged.Stats.Entities != 3 || merged.Stats.Filled != 3 {
		t.Fatalf("summed counters wrong: %+v", merged.Stats)
	}
	if merged.Stats.RunMS != 9 {
		t.Fatalf("RunMS = %v, want max 9", merged.Stats.RunMS)
	}
}

func TestRouterRejectsBadRequests(t *testing.T) {
	f := newFakeThord(t, "b1")
	rt := newTestRouter(t, obs.NewRegistry(), Options{}, f.ts.URL)

	status, raw, _ := post(t, rt.Handler(), "/v1/fill", []byte(`{not json`))
	if status != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d: %s", status, raw)
	}
	status, raw, _ = post(t, rt.Handler(), "/v1/fill", []byte(`{"documents":[]}`))
	if status != http.StatusBadRequest {
		t.Fatalf("empty documents: status %d: %s", status, raw)
	}
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/fill", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status %d, want 405", rec.Code)
	}
	if f.calls.Load() != 0 {
		t.Fatalf("invalid requests reached the backend %d times", f.calls.Load())
	}
}

// hostOf strips the scheme from a test server URL.
func hostOf(u string) string {
	return strings.TrimPrefix(u, "http://")
}
