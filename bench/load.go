package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"thor/internal/datagen"
	"thor/internal/embed"
	"thor/internal/experiments"
	"thor/internal/router"
	"thor/internal/schema"
	"thor/internal/serve"
)

// setupRuns is how many times a serving workload builds its engine; setup_s
// is the median, and the last engine serves the measured phase.
const setupRuns = 5

// runner holds one run's inputs and what it measured.
type runner struct {
	seed    int64
	seconds time.Duration
	ds      *datagen.Dataset
	// vectors is ds.Space in THORVEC1 form: every engine decodes its own
	// Space from it, so no memo survives from one set-up to the next.
	vectors []byte
	rng     *rand.Rand
	nproc   int
	spans   *spanLog // nil unless the run is traced
	res     measured
}

// measured is what a workload records; metrics() turns it into metrics.
type measured struct {
	setup     []time.Duration
	ops       []time.Duration // latency of every measured operation
	docs      int             // documents completed in the measured phase
	elapsed   time.Duration   // wall time of the measured phase
	attempted int
	failed    int
	failures  []string
	samples   map[string]int // sample counts behind the metrics
	peakHeap  uint64
	rt        rtCounters // runtime deltas across the measured phase
	quant     [2]uint64  // int8 screening: filtered, passed
	stages    map[string]*stageSum
	runMS     []float64 // pipeline run wall time per operation
	batchDocs []float64 // documents in the pipeline run per operation
	layer     map[string]metric
}

type stageSum struct {
	calls int64
	ms    float64
}

func newRunner(seed int64, seconds time.Duration, traced bool) (*runner, error) {
	ds := datagen.Disease(seed)
	var buf bytes.Buffer
	if _, err := ds.Space.WriteTo(&buf); err != nil {
		return nil, fmt.Errorf("encode vectors: %w", err)
	}
	r := &runner{
		seed:    seed,
		seconds: seconds,
		ds:      ds,
		vectors: buf.Bytes(),
		rng:     rand.New(rand.NewSource(seed)),
		nproc:   runtime.NumCPU(),
		res: measured{
			samples: map[string]int{},
			stages:  map[string]*stageSum{},
			layer:   map[string]metric{},
		},
	}
	if traced {
		r.spans = &spanLog{start: time.Now()}
	}
	return r, nil
}

// fail records a failed check; it counts as a failed operation.
func (m *measured) fail(format string, args ...any) {
	m.failed++
	if len(m.failures) < 20 {
		m.failures = append(m.failures, fmt.Sprintf(format, args...))
	}
}

func (m *measured) addStage(stage string, calls int64, ms float64) {
	s := m.stages[stage]
	if s == nil {
		s = &stageSum{}
		m.stages[stage] = s
	}
	s.calls += calls
	s.ms += ms
}

// space decodes a fresh embedding space from the run's THORVEC1 bytes.
func (r *runner) space() (*embed.Space, error) {
	sp, err := embed.ReadSpace(bytes.NewReader(r.vectors))
	if err != nil {
		return nil, fmt.Errorf("decode vectors: %w", err)
	}
	return sp, nil
}

// Runtime metric names; all are KindUint64 since go1.21.
var rtNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/heap/live:bytes",
}

type rtCounters struct {
	gcs, allocBytes, allocObjs, live uint64
}

func readRuntime() rtCounters {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	return rtCounters{gcs: v(0), allocBytes: v(1), allocObjs: v(2), live: v(3)}
}

// sampler takes runtime and int8-screening deltas across a measured phase
// and polls the live heap for its peak. The counters are process-wide, so
// they include the benchmark's own clients.
type sampler struct {
	start            rtCounters
	filtered, passed uint64
	peak             atomic.Uint64
	stop, done       chan struct{}
}

func startSampler() *sampler {
	s := &sampler{start: readRuntime(), stop: make(chan struct{}), done: make(chan struct{})}
	s.filtered, s.passed = embed.QuantCounters()
	s.peak.Store(s.start.live)
	go func() {
		defer close(s.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				if live := readRuntime().live; live > s.peak.Load() {
					s.peak.Store(live)
				}
			}
		}
	}()
	return s
}

// finish stops the poller and adds the deltas to m.
func (s *sampler) finish(m *measured) {
	close(s.stop)
	<-s.done
	end := readRuntime()
	f, p := embed.QuantCounters()
	m.rt.gcs += end.gcs - s.start.gcs
	m.rt.allocBytes += end.allocBytes - s.start.allocBytes
	m.rt.allocObjs += end.allocObjs - s.start.allocObjs
	m.quant[0] += f - s.filtered
	m.quant[1] += p - s.passed
	m.peakHeap = max(m.peakHeap, s.peak.Load(), end.live)
}

// spanLog keeps the spans a traced run records around calls into each
// module. Recording alternates on and off during the measured phase so the
// run can also report what tracing cost.
type spanLog struct {
	start time.Time
	on    atomic.Bool

	mu      sync.Mutex
	spans   []span
	since   time.Time
	onTime  time.Duration
	offTime time.Duration
	onDocs  int
	offDocs int
}

// The span kinds, one per module boundary the benchmark times.
const (
	spanRequest uint8 = iota // a client's /v1/fill round trip
	spanServe                // serve.Server handling /v1/fill
	spanRouter               // the router's handler for /v1/fill
	spanTable                // a client's POST /v1/table round trip
	spanNew                  // thor.New: the pipeline's fine-tune
	spanRun                  // Pipeline.RunContext
)

var spanNames = [...]string{"bench.request", "serve.handler", "router.handler", "serve.table", "thor.New", "thor.RunContext"}

// span holds no pointers, so a long log adds no garbage-collector work.
type span struct {
	kind       uint8
	start, dur time.Duration
}

// add records a span that started at t0 and lasted d, if recording is on.
func (l *spanLog) add(kind uint8, t0 time.Time, d time.Duration) {
	if l == nil || !l.on.Load() {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{kind: kind, start: t0.Sub(l.start), dur: d})
	l.mu.Unlock()
}

// set switches recording on or off, closing the current phase.
func (l *spanLog) set(on bool) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := time.Now()
	if !l.since.IsZero() {
		if l.on.Load() {
			l.onTime += now.Sub(l.since)
		} else {
			l.offTime += now.Sub(l.since)
		}
	}
	l.since = now
	l.on.Store(on)
}

// stop closes the last phase and leaves recording off.
func (l *spanLog) stop() {
	l.set(false)
	if l != nil {
		l.mu.Lock()
		l.since = time.Time{}
		l.mu.Unlock()
	}
}

// docs credits n completed documents to the current phase.
func (l *spanLog) docs(n int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if l.on.Load() {
		l.onDocs += n
	} else {
		l.offDocs += n
	}
	l.mu.Unlock()
}

// alternate switches recording in 200ms slices until done closes, in the
// order on, off, off, on: a steady drift in speed, such as caches warming,
// then favours neither side, and the slices do not line up with churn's
// 250ms writes.
func (l *spanLog) alternate(done <-chan struct{}) {
	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	for k := 0; ; k++ {
		l.set(abba(k))
		select {
		case <-done:
			l.stop()
			return
		case <-tick.C:
		}
	}
}

// abba reports whether slice k of an on, off, off, on sequence is on.
func abba(k int) bool { return k%4 == 0 || k%4 == 3 }

// overhead is 1 − (docs per second with recording on)/(with it off).
func (l *spanLog) overhead() float64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.onTime <= 0 || l.offTime <= 0 || l.offDocs == 0 {
		return 0
	}
	on := float64(l.onDocs) / l.onTime.Seconds()
	off := float64(l.offDocs) / l.offTime.Seconds()
	return 1 - on/off
}

// durations returns the recorded durations of one span kind, in ms.
func (l *spanLog) durations(kind uint8) []float64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.kind == kind {
			out = append(out, ms(s.dur))
		}
	}
	return out
}

// spanRecord is the span dump's form of a span.
type spanRecord struct {
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

func (l *spanLog) dump() []spanRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]spanRecord, len(l.spans))
	for i, s := range l.spans {
		out[i] = spanRecord{Name: spanNames[s.kind], StartUS: us(s.start), DurUS: us(s.dur)}
	}
	return out
}

// wrap times every /v1/fill call into h as a span of the given kind.
// Untraced runs get h itself.
func (l *spanLog) wrap(kind uint8, h http.Handler) http.Handler {
	if l == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/v1/fill" || !l.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, req)
		l.add(kind, t0, time.Since(t0))
	})
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// capture sits in front of the tier's backend. It counts /v1/fill calls and,
// while armed, keeps the last response body the backend wrote, so the tier
// check can compare what the router relayed with what the backend sent.
type capture struct {
	h     http.Handler
	calls atomic.Int64
	armed atomic.Bool
	mu    sync.Mutex
	last  []byte
}

func (c *capture) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.URL.Path == "/v1/fill" {
		c.calls.Add(1)
	}
	if req.URL.Path != "/v1/fill" || !c.armed.Load() {
		c.h.ServeHTTP(w, req)
		return
	}
	tw := &teeWriter{ResponseWriter: w}
	c.h.ServeHTTP(tw, req)
	c.mu.Lock()
	c.last = tw.buf.Bytes()
	c.mu.Unlock()
}

func (c *capture) take() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.last
	c.last = nil
	return b
}

type teeWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (t *teeWriter) Write(p []byte) (int, error) {
	t.buf.Write(p)
	return t.ResponseWriter.Write(p)
}

// httpServer is an http.Server on a loopback port.
type httpServer struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // ErrServerClosed after close
	}()
	return s, nil
}

func (s *httpServer) close() {
	_ = s.hs.Close()
	<-s.done
}

// engine is one serving stack: a serve.Server behind a loopback listener
// and, on the tier workload, a router in front of it.
type engine struct {
	srv     *serve.Server
	backend *httpServer
	rt      *router.Router
	front   *httpServer
	capture *capture
	url     string // where clients send requests
}

// startEngine builds a serving stack over table with thord's defaults:
// BatchMax 16, BatchWindow 2ms, QueueDepth 64, Workers = GOMAXPROCS. The
// set-up time — fine-tune, listeners and, with a router, router.New plus
// its first probe — is appended to the run's set-up samples. Decoding the
// vectors is not part of it.
func (r *runner) startEngine(table *schema.Table, tier bool) (*engine, error) {
	sp, err := r.space()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	srv, err := serve.NewServer(serve.Options{
		Table:       table,
		Knowledge:   r.ds.Table,
		Space:       sp,
		Tau:         experiments.BestTau,
		Lexicon:     r.ds.Lexicon,
		BatchWindow: 2 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	e := &engine{srv: srv}
	var h http.Handler = r.spans.wrap(spanServe, srv)
	if tier {
		e.capture = &capture{h: h}
		h = e.capture
	}
	if e.backend, err = listen(h); err != nil {
		e.close()
		return nil, err
	}
	e.url = e.backend.url
	if tier {
		e.rt, err = router.New(router.Options{Shards: router.SingleShard([]string{e.backend.url})})
		if err != nil {
			e.close()
			return nil, err
		}
		if e.front, err = listen(r.spans.wrap(spanRouter, e.rt.Handler())); err != nil {
			e.close()
			return nil, err
		}
		e.rt.Probe(context.Background())
		e.url = e.front.url
	}
	r.res.setup = append(r.res.setup, time.Since(t0))
	return e, nil
}

// startEngines builds the stack setupRuns times, for the set-up samples,
// and returns the last one.
func (r *runner) startEngines(table func() *schema.Table, tier bool) (*engine, error) {
	for i := 1; ; i++ {
		e, err := r.startEngine(table(), tier)
		if err != nil || i == setupRuns {
			return e, err
		}
		e.close()
	}
}

func (e *engine) close() {
	if e.front != nil {
		e.front.close()
	}
	if e.rt != nil {
		e.rt.Close()
	}
	if e.backend != nil {
		e.backend.close()
	}
	e.srv.Close()
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
	}
}

// post sends one request and reads the whole reply.
func post(c *http.Client, url string, body []byte, ifMatch string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if ifMatch != "" {
		req.Header.Set("If-Match", ifMatch)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// closedLoop runs n clients until deadline. Each client calls step, which
// sends one request and waits for its reply, again and again; a client
// stops early when step returns false. It returns once all have stopped.
func closedLoop(n int, deadline time.Time, step func(client int) bool) {
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) && step(c) {
			}
		}(c)
	}
	wg.Wait()
}
