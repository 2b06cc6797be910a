package obs

import (
	"math/rand"
	"testing"
	"time"
)

// testClock is the deterministic SLOConfig.Now seam.
type testClock struct{ now time.Time }

func (c *testClock) Now() time.Time          { return c.now }
func (c *testClock) advance(d time.Duration) { c.now = c.now.Add(d) }
func newTestClock() *testClock               { return &testClock{now: time.Unix(1_000_000, 0)} }
func newTestSLO(c *testClock, cfg SLOConfig) *SLO {
	cfg.Now = c.Now
	return NewSLO(cfg)
}

// TestSLODegradedAndRecovers pins the burn-rate lifecycle: a healthy stream
// stays ready, injected latency violations flip it degraded, and expiry of
// the window recovers it without any reset call — the /readyz contract.
func TestSLODegradedAndRecovers(t *testing.T) {
	clock := newTestClock()
	slo := newTestSLO(clock, SLOConfig{
		Window:        time.Minute,
		Slices:        6,
		Latency:       100 * time.Millisecond,
		LatencyBudget: 0.01,
		MinSamples:    10,
	})

	for i := 0; i < 50; i++ {
		slo.Observe("fill", 5*time.Millisecond, false)
	}
	if slo.Degraded() {
		t.Fatal("degraded on healthy traffic")
	}

	// Inject latency violations: 20 of 70 observations slow blows a 1%
	// budget by orders of magnitude.
	for i := 0; i < 20; i++ {
		slo.Observe("fill", 300*time.Millisecond, false)
	}
	st := slo.Status()
	if !st.Degraded || len(st.Violating) != 1 || st.Violating[0] != "fill" {
		t.Fatalf("status = %+v, want degraded by fill", st)
	}
	fs := st.Streams["fill"]
	if fs.Count != 70 || fs.Slow != 20 {
		t.Fatalf("stream = %+v, want count 70 slow 20", fs)
	}
	if fs.BurnRate < 1 {
		t.Fatalf("burn rate %v, want >= 1", fs.BurnRate)
	}
	if fs.P50MS >= 100 || fs.P99MS < 100 {
		t.Fatalf("p50 %.1fms p99 %.1fms: percentiles inconsistent with 50 fast + 20 slow", fs.P50MS, fs.P99MS)
	}

	// The violations age out of the window; the engine recovers by itself.
	clock.advance(2 * time.Minute)
	if slo.Degraded() {
		t.Fatal("still degraded after the window expired")
	}
	for i := 0; i < 20; i++ {
		slo.Observe("fill", time.Millisecond, false)
	}
	if slo.Degraded() {
		t.Fatal("degraded after recovery traffic")
	}
}

// TestSLOErrorBudget checks the error burn path (independent of latency).
func TestSLOErrorBudget(t *testing.T) {
	clock := newTestClock()
	slo := newTestSLO(clock, SLOConfig{ErrorBudget: 0.05, MinSamples: 10})
	for i := 0; i < 19; i++ {
		slo.Observe("fill", time.Millisecond, false)
	}
	if slo.Degraded() {
		t.Fatal("degraded without errors")
	}
	slo.Observe("fill", time.Millisecond, true) // 1/20 = 5% = burn rate 1
	if !slo.Degraded() {
		t.Fatal("not degraded at burn rate 1")
	}
}

// TestSLOMinSamplesGuard checks a cold engine is healthy, not degraded.
func TestSLOMinSamplesGuard(t *testing.T) {
	clock := newTestClock()
	slo := newTestSLO(clock, SLOConfig{Latency: time.Millisecond, MinSamples: 10})
	for i := 0; i < 9; i++ {
		slo.Observe("fill", time.Second, true) // all violating, but too few
	}
	if slo.Degraded() {
		t.Fatal("degraded below MinSamples")
	}
	slo.Observe("fill", time.Second, true)
	if !slo.Degraded() {
		t.Fatal("not degraded at MinSamples")
	}
}

// TestSLOTrackedStreamsNeverViolate checks Track feeds percentiles without
// participating in the degraded signal.
func TestSLOTrackedStreamsNeverViolate(t *testing.T) {
	clock := newTestClock()
	slo := newTestSLO(clock, SLOConfig{Latency: time.Millisecond, MinSamples: 1})
	for i := 0; i < 100; i++ {
		slo.Track("stage.match", time.Second)
	}
	st := slo.Status()
	if st.Degraded || len(st.Violating) != 0 {
		t.Fatalf("tracked stream degraded the engine: %+v", st)
	}
	ss := st.Streams["stage.match"]
	if ss.Judged || ss.Count != 100 {
		t.Fatalf("stream = %+v, want unjudged count 100", ss)
	}
	if ss.P50MS < 900 || ss.P50MS > 1100 {
		t.Fatalf("p50 = %.1fms, want ~1000ms", ss.P50MS)
	}
}

// TestSLOWindowSlicesMerge checks observations spread over several slices
// merge into one windowed percentile view (bucket counts sum across slices).
func TestSLOWindowSlicesMerge(t *testing.T) {
	clock := newTestClock()
	slo := newTestSLO(clock, SLOConfig{Window: time.Minute, Slices: 6})
	for s := 0; s < 3; s++ {
		for i := 0; i < 50; i++ {
			slo.Observe("fill", 10*time.Millisecond, false)
		}
		clock.advance(10 * time.Second)
	}
	ss := slo.Status().Streams["fill"]
	if ss.Count != 150 {
		t.Fatalf("windowed count %d, want 150 across 3 slices", ss.Count)
	}
	clock.advance(2 * time.Minute)
	if got := slo.Status().Streams["fill"].Count; got != 0 {
		t.Fatalf("count %d after expiry, want 0", got)
	}
}

func TestSLONilIsNoOp(t *testing.T) {
	var slo *SLO
	slo.Observe("x", time.Second, true)
	slo.Track("x", time.Second)
	if slo.Degraded() {
		t.Fatal("nil SLO degraded")
	}
	if st := slo.Status(); st.Degraded || len(st.Streams) != 0 {
		t.Fatalf("nil SLO status = %+v", st)
	}
	slo.PublishExpvar("") // must not panic
}

// TestSLOWindowQuantilesMatchHistogram: over seeded durations spread across
// slices, some of which expire, every windowed percentile equals
// Histogram.Quantile over the observations still in the window.
func TestSLOWindowQuantilesMatchHistogram(t *testing.T) {
	const slice = 10 * time.Second
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		clock := newTestClock()
		slo := newTestSLO(clock, SLOConfig{Window: 6 * slice, Slices: 6})
		type timed struct {
			epoch int64
			d     time.Duration
		}
		var seen []timed
		for step := 0; step < 12; step++ {
			for _, d := range genDurations(r, 1+r.Intn(50)) {
				slo.Track("s", d)
				seen = append(seen, timed{clock.now.UnixNano() / int64(slice), d})
			}
			clock.advance(time.Duration(r.Int63n(int64(25 * time.Second))))
		}
		minEpoch := clock.now.UnixNano()/int64(slice) - 5
		var h Histogram
		for _, o := range seen {
			if o.epoch >= minEpoch {
				h.Observe(o.d)
			}
		}
		ss := slo.Status().Streams["s"]
		if ss.Count != h.Count() {
			t.Fatalf("seed %d: window count %d, want %d", seed, ss.Count, h.Count())
		}
		for q, got := range map[float64]float64{0.50: ss.P50MS, 0.95: ss.P95MS, 0.99: ss.P99MS} {
			if want := h.Quantile(q).Seconds() * 1e3; got != want {
				t.Errorf("seed %d q=%v: window %vms, histogram %vms", seed, q, got, want)
			}
		}
	}
}
