package obs

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestBucketBounds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{-time.Second, 0},
		{0, 0},
		{500 * time.Nanosecond, 0}, // sub-microsecond
		{time.Microsecond, 0},      // bounds are inclusive: 1µs ≤ BucketBound(0)
		{time.Microsecond + 1, 1},
		{1500 * time.Nanosecond, 1},
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 2},
		{4*time.Microsecond + 1, 3},
		{time.Millisecond, 10}, // 1000µs ≤ 1024µs = BucketBound(10)
		{time.Second, 20},      // 1e6µs ≤ 2^20µs = BucketBound(20)
		{BucketBound(NumBuckets - 2), NumBuckets - 2},
		{BucketBound(NumBuckets-2) + 1, NumBuckets - 1},
		{time.Hour, NumBuckets - 1}, // overflow
	}
	for _, c := range cases {
		var h Histogram
		h.Observe(c.d)
		got := -1
		for i := range h.buckets {
			if h.buckets[i].Load() == 1 {
				got = i
				break
			}
		}
		if got != c.want {
			t.Errorf("Observe(%v): bucket %d, want %d", c.d, got, c.want)
		}
	}
}

func TestBucketBoundMonotonic(t *testing.T) {
	for i := 1; i < NumBuckets-1; i++ {
		if BucketBound(i) != 2*BucketBound(i-1) {
			t.Fatalf("bucket %d bound %v is not double bucket %d bound %v",
				i, BucketBound(i), i-1, BucketBound(i-1))
		}
	}
	if BucketBound(0) != time.Microsecond {
		t.Fatalf("bucket 0 bound = %v, want 1µs", BucketBound(0))
	}
}

func TestHistogramStats(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond} {
		h.Observe(d)
	}
	if h.Count() != 3 {
		t.Fatalf("Count = %d, want 3", h.Count())
	}
	if h.Sum() != 6*time.Millisecond {
		t.Fatalf("Sum = %v, want 6ms", h.Sum())
	}
	s := h.snapshot()
	if s.MinSeconds != 0.001 || s.MaxSeconds != 0.003 {
		t.Fatalf("min/max = %v/%v, want 0.001/0.003", s.MinSeconds, s.MaxSeconds)
	}
	if s.MeanSeconds < 0.0019 || s.MeanSeconds > 0.0021 {
		t.Fatalf("mean = %v, want ~0.002", s.MeanSeconds)
	}
	if s.P50Seconds <= 0 || s.P99Seconds < s.P50Seconds {
		t.Fatalf("quantiles inconsistent: p50=%v p99=%v", s.P50Seconds, s.P99Seconds)
	}
}

// TestQuantile pins the percentile rule on a known CDF: answers are
// monotone in q, and an answer in the overflow bucket reports the last
// finite bound.
func TestQuantile(t *testing.T) {
	les := []float64{0.001, 0.01, 0.1, math.Inf(1)}
	cums := []float64{10, 60, 90, 100}
	counts := make([]float64, len(cums))
	for i := range cums {
		counts[i] = cums[i]
		if i > 0 {
			counts[i] -= cums[i-1]
		}
	}
	var prev float64
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		v := Quantile(les, counts, q)
		if v < prev {
			t.Fatalf("quantile %v = %v < previous %v (not monotone)", q, v, prev)
		}
		prev = v
	}
	// q=0.99 lands in the +Inf bucket: clamped to the last finite bound.
	if v := Quantile(les, counts, 0.99); v != 0.1 {
		t.Errorf("overflow quantile = %v, want clamp to 0.1", v)
	}
}

// genDurations draws n seeded durations log-uniformly from 1ns to 200s, so
// sub-µs values and values past the last finite bound (~67s) both occur.
func genDurations(r *rand.Rand, n int) []time.Duration {
	ds := make([]time.Duration, n)
	for i := range ds {
		ds[i] = time.Duration(math.Exp(r.Float64() * math.Log(2e11)))
	}
	return ds
}

// TestHistogramQuantileBrackets checks the rule's guarantee against an exact
// sort over seeded durations: the nearest-rank quantile lies below the
// answer and is at least half of it; sub-µs quantiles read the first bound
// and quantiles past the last finite bound read that bound. The read does
// not allocate.
func TestHistogramQuantileBrackets(t *testing.T) {
	lastFinite := BucketBound(NumBuckets - 2)
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		ds := genDurations(r, 1+r.Intn(500))
		var h Histogram
		for _, d := range ds {
			h.Observe(d)
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		for _, q := range []float64{0, 0.5, 0.9, 0.95, 0.99, 1} {
			rank := int(math.Max(1, math.Floor(q*float64(len(ds))+0.5)))
			exact, got := ds[rank-1], h.Quantile(q)
			var ok bool
			switch {
			case exact < time.Microsecond:
				ok = got == time.Microsecond
			case exact >= lastFinite:
				ok = got == lastFinite
			default:
				ok = exact < got && 2*exact >= got
			}
			if !ok {
				t.Errorf("seed %d q=%v: quantile %v for exact %v", seed, q, got, exact)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { h.Quantile(0.95) }); allocs != 0 {
			t.Fatalf("Histogram.Quantile allocates %v times per call", allocs)
		}
	}
	var empty *Histogram
	if empty.Quantile(0.5) != 0 {
		t.Fatal("nil histogram quantile != 0")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const iters = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("shared").Add(1)
				r.Histogram("lat").Observe(time.Duration(i) * time.Microsecond)
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	if got := r.Histogram("lat").Count(); got != workers*iters {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
	s := r.Snapshot()
	if s.Counters["shared"] != workers*iters {
		t.Fatalf("snapshot counter = %d, want %d", s.Counters["shared"], workers*iters)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot not serializable: %v", err)
	}
}

func TestRegistryNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("b")
	r.Histogram("a")
	r.Counter("c")
	got := r.Names()
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("Names = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names = %v, want %v", got, want)
		}
	}
}

// TestNilRegistryZeroAlloc guards the disabled path: a nil registry and nil
// instruments must not allocate.
func TestNilRegistryZeroAlloc(t *testing.T) {
	var r *Registry
	allocs := testing.AllocsPerRun(100, func() {
		c := r.Counter("x")
		c.Add(1)
		h := r.Histogram("y")
		h.Observe(time.Millisecond)
		var tr *Tracer
		sp := tr.StartSpan("z")
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("nil registry hot path allocates %v times per run, want 0", allocs)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	if r.Counter("x") != nil || r.Histogram("y") != nil || r.Names() != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
	var c *Counter
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
	var h *Histogram
	h.Observe(time.Second)
	h.ObserveSince(time.Now())
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram must read 0")
	}
}

func BenchmarkNilRegistryHotPath(b *testing.B) {
	var r *Registry
	c := r.Counter("x")
	h := r.Histogram("y")
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
		h.Observe(time.Microsecond)
		sp := tr.StartSpan("z")
		sp.End()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i) * time.Nanosecond)
	}
}
