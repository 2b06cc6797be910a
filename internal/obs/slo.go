package obs

import (
	"expvar"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SLOConfig configures an SLO engine. Every zero value has a serving-grade
// default; a zero Latency disables the latency objective (streams are then
// tracked for percentiles only and never judged violating).
type SLOConfig struct {
	// Window is the sliding evaluation window. Zero defaults to 60s.
	Window time.Duration
	// Slices is the number of buckets the window rotates through (finer
	// slices -> smoother expiry). Zero defaults to 6.
	Slices int
	// Latency is the latency objective: a judged observation at or above it
	// consumes error budget. Zero disables the latency objective.
	Latency time.Duration
	// LatencyBudget is the fraction of judged observations allowed to
	// breach Latency before the SLO burns at rate 1. Zero defaults to 0.01.
	LatencyBudget float64
	// ErrorBudget is the fraction of judged observations allowed to error.
	// Zero defaults to 0.01.
	ErrorBudget float64
	// BurnThreshold is the burn rate at or beyond which a stream is
	// violating (degraded). Zero defaults to 1.
	BurnThreshold float64
	// MinSamples is the minimum judged observations in the window before a
	// stream can be judged violating — a cold engine is healthy, not
	// degraded. Zero defaults to 10.
	MinSamples int64
	// Now overrides the clock — the deterministic test seam. Nil uses
	// time.Now.
	Now func() time.Time
	// OnTransition, when set, fires on every healthy<->degraded edge
	// observed by Status(): degraded reports the new state, violating the
	// violating streams at the transition (nil on recovery). It fires at
	// most once per edge — Status() is polled concurrently by /readyz,
	// /metrics and the profiler, and only the poll that wins the state CAS
	// invokes the callback. The very first evaluation never fires: a
	// fresh engine entering its initial state is not a transition.
	OnTransition func(degraded bool, violating []string)
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Window <= 0 {
		c.Window = time.Minute
	}
	if c.Slices <= 0 {
		c.Slices = 6
	}
	if c.LatencyBudget <= 0 {
		c.LatencyBudget = 0.01
	}
	if c.ErrorBudget <= 0 {
		c.ErrorBudget = 0.01
	}
	if c.BurnThreshold <= 0 {
		c.BurnThreshold = 1
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 10
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// sloBucket is one time slice of one stream.
type sloBucket struct {
	epoch int64 // which window slice the bucket currently holds; -1 = empty
	total int64
	slow  int64
	errs  int64
	lat   [NumBuckets]int64 // latency counts in the Histogram layout
}

// sloStream is one named latency stream (a route or a pipeline stage).
type sloStream struct {
	judged  bool // judged streams drive the burn-rate check
	buckets []sloBucket
}

// StreamStatus is one stream's view in an SLO snapshot.
type StreamStatus struct {
	// Judged reports whether the stream participates in the burn-rate
	// check (routes do, pipeline stages are tracked for percentiles only).
	Judged bool `json:"judged"`
	// Count is the number of observations in the window.
	Count int64 `json:"count"`
	// Slow is the number of observations at or above the latency objective.
	Slow int64 `json:"slow,omitempty"`
	// Errors is the number of errored observations.
	Errors int64 `json:"errors,omitempty"`
	// P50MS, P95MS and P99MS are windowed latency percentiles in
	// milliseconds: the Quantile rule over the window's summed bucket
	// counts.
	P50MS float64 `json:"p50Ms"`
	// P95MS is the windowed 95th percentile in milliseconds.
	P95MS float64 `json:"p95Ms"`
	// P99MS is the windowed 99th percentile in milliseconds.
	P99MS float64 `json:"p99Ms"`
	// BurnRate is the worse of the latency and error budget burn rates
	// (1 = budget consumed exactly at the allowed rate).
	BurnRate float64 `json:"burnRate"`
	// Violated reports whether the stream breaches the SLO right now.
	Violated bool `json:"violated"`
}

// SLOStatus is the JSON snapshot of an SLO engine.
type SLOStatus struct {
	// WindowSeconds is the sliding window length.
	WindowSeconds float64 `json:"windowSeconds"`
	// LatencyObjectiveMS is the latency objective in milliseconds (0 when
	// disabled).
	LatencyObjectiveMS float64 `json:"latencyObjectiveMs"`
	// Degraded reports whether any judged stream is violating.
	Degraded bool `json:"degraded"`
	// Violating lists the violating streams, sorted.
	Violating []string `json:"violating,omitempty"`
	// Streams maps stream names to their windowed status.
	Streams map[string]StreamStatus `json:"streams"`
}

// SLO is a streaming SLO engine: per-stream windowed latency percentiles
// (bucket counts in the Histogram layout, one array per time slice) plus a
// burn-rate check over the latency and error budgets. Judged streams
// (Observe) drive the degraded signal consumed by /readyz; tracked streams
// (Track) publish percentiles only. A nil *SLO is a valid disabled engine:
// Observe, Track and Degraded no-op.
type SLO struct {
	mu  sync.Mutex
	cfg SLOConfig

	streams map[string]*sloStream

	// lastState is the edge detector behind OnTransition: 0 = never
	// evaluated, 1 = healthy, 2 = degraded. Status() CASes the observed
	// state in so exactly one concurrent poll fires the callback per edge.
	lastState atomic.Int32
}

// NewSLO returns an SLO engine with the given configuration.
func NewSLO(cfg SLOConfig) *SLO {
	return &SLO{cfg: cfg.withDefaults(), streams: make(map[string]*sloStream)}
}

// sliceDur is the duration of one window slice.
func (s *SLO) sliceDur() time.Duration {
	return s.cfg.Window / time.Duration(s.cfg.Slices)
}

// Observe records one judged observation: it feeds the stream's percentile
// buckets and consumes latency/error budget. No-op on a nil engine.
func (s *SLO) Observe(stream string, d time.Duration, errored bool) {
	s.observe(stream, d, errored, true)
}

// Track records one percentile-only observation: the stream is reported in
// Status but never judged violating. No-op on a nil engine.
func (s *SLO) Track(stream string, d time.Duration) {
	s.observe(stream, d, false, false)
}

func (s *SLO) observe(stream string, d time.Duration, errored, judged bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.streams[stream]
	if st == nil {
		st = &sloStream{judged: judged, buckets: make([]sloBucket, s.cfg.Slices)}
		for i := range st.buckets {
			st.buckets[i].epoch = -1
		}
		s.streams[stream] = st
	}
	epoch := s.cfg.Now().UnixNano() / int64(s.sliceDur())
	b := &st.buckets[int(epoch%int64(s.cfg.Slices))]
	if b.epoch != epoch {
		*b = sloBucket{epoch: epoch}
	}
	b.total++
	if errored {
		b.errs++
	}
	if s.cfg.Latency > 0 && d >= s.cfg.Latency {
		b.slow++
	}
	b.lat[bucketIndex(d)]++
}

// Status snapshots every stream over the current window.
func (s *SLO) Status() SLOStatus {
	out := SLOStatus{Streams: map[string]StreamStatus{}}
	if s == nil {
		return out
	}
	s.mu.Lock()
	out.WindowSeconds = s.cfg.Window.Seconds()
	out.LatencyObjectiveMS = float64(s.cfg.Latency) / float64(time.Millisecond)
	epoch := s.cfg.Now().UnixNano() / int64(s.sliceDur())
	for name, st := range s.streams {
		ss := s.streamStatusLocked(st, epoch)
		out.Streams[name] = ss
		if ss.Violated {
			out.Degraded = true
			out.Violating = append(out.Violating, name)
		}
	}
	s.mu.Unlock()
	sort.Strings(out.Violating)
	s.fireTransition(out)
	return out
}

// fireTransition runs the OnTransition edge detector against one snapshot.
// It is called after the engine lock is released, so the callback may call
// back into the engine freely; the CAS below is the only synchronization
// the edge itself needs.
func (s *SLO) fireTransition(st SLOStatus) {
	if s.cfg.OnTransition == nil {
		return
	}
	state := int32(1)
	if st.Degraded {
		state = 2
	}
	for {
		prev := s.lastState.Load()
		if prev == state {
			return // no edge
		}
		if !s.lastState.CompareAndSwap(prev, state) {
			continue // raced with a concurrent poll; re-inspect
		}
		if prev == 0 {
			return // first evaluation: initial state, not a transition
		}
		s.cfg.OnTransition(st.Degraded, st.Violating)
		return
	}
}

// streamStatusLocked folds the live window slices of one stream: counters
// and bucket counts summed, percentiles read from the summed buckets.
func (s *SLO) streamStatusLocked(st *sloStream, epoch int64) StreamStatus {
	ss := StreamStatus{Judged: st.judged}
	var window [NumBuckets]float64
	minEpoch := epoch - int64(s.cfg.Slices) + 1
	for i := range st.buckets {
		b := &st.buckets[i]
		if b.epoch < minEpoch || b.epoch > epoch {
			continue // stale slice: expired out of the window
		}
		ss.Count += b.total
		ss.Slow += b.slow
		ss.Errors += b.errs
		for j, n := range b.lat {
			window[j] += float64(n)
		}
	}
	ss.P50MS = bucketQuantile(&window, 0.50).Seconds() * 1e3
	ss.P95MS = bucketQuantile(&window, 0.95).Seconds() * 1e3
	ss.P99MS = bucketQuantile(&window, 0.99).Seconds() * 1e3
	if st.judged && ss.Count > 0 {
		latBurn := 0.0
		if s.cfg.Latency > 0 {
			latBurn = (float64(ss.Slow) / float64(ss.Count)) / s.cfg.LatencyBudget
		}
		errBurn := (float64(ss.Errors) / float64(ss.Count)) / s.cfg.ErrorBudget
		ss.BurnRate = latBurn
		if errBurn > ss.BurnRate {
			ss.BurnRate = errBurn
		}
		ss.Violated = ss.Count >= s.cfg.MinSamples && ss.BurnRate >= s.cfg.BurnThreshold
	}
	return ss
}

// Degraded reports whether any judged stream currently violates the SLO.
func (s *SLO) Degraded() bool {
	if s == nil {
		return false
	}
	return s.Status().Degraded
}

// PublishExpvar registers the engine's live status under the given name in
// the process-wide expvar namespace (visible in /debug/vars). Idempotent;
// nil-safe.
func (s *SLO) PublishExpvar(name string) {
	if s == nil || name == "" {
		return
	}
	publishMu.Lock()
	defer publishMu.Unlock()
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return s.Status() }))
}
