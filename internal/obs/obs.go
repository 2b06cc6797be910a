package obs

import (
	"encoding/binary"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing (or freely adjusted) int64 metric.
// The zero value is ready to use; all methods are nil-safe.
type Counter struct {
	n atomic.Int64
}

// Add increments the counter by delta. No-op on a nil counter.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.n.Add(delta)
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is an instantaneous int64 level — a queue depth, an in-flight
// count — that moves both ways, unlike a Counter's monotone story. The zero
// value is ready to use; all methods are nil-safe.
type Gauge struct {
	n atomic.Int64
}

// Set replaces the gauge's value. No-op on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.n.Store(v)
}

// Add moves the gauge by delta (negative deltas decrease it). No-op on a
// nil gauge.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.n.Add(delta)
}

// Value returns the current level (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.n.Load()
}

// FloatGauge is an instantaneous float64 level — a ratio, a density, a
// rate — for signals that do not fit an integer Gauge. The zero value is
// ready to use; all methods are nil-safe and lock-free (the value is stored
// as IEEE-754 bits in an atomic word).
type FloatGauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value. No-op on a nil gauge.
func (g *FloatGauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current level (0 on a nil gauge).
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// NumBuckets is the fixed number of histogram buckets: 27 log-scaled
// finite buckets (1µs, 2µs, 4µs, … ~67s) plus one overflow bucket.
const NumBuckets = 28

// BucketBound returns the inclusive upper bound of bucket i: 1µs << i.
// The last bucket (i = NumBuckets-1) is unbounded and reported as "+Inf".
func BucketBound(i int) time.Duration {
	return time.Microsecond << i
}

// bucketIndex maps a duration to its bucket: the smallest i such that
// d ≤ BucketBound(i), so every bound is inclusive, as the exposition's `le`
// says. Durations up to 1µs land in bucket 0; anything beyond the last
// finite bound lands in the overflow bucket.
func bucketIndex(d time.Duration) int {
	i := 0
	for i < NumBuckets-1 && d > BucketBound(i) {
		i++
	}
	return i
}

// Histogram is a fixed-bucket, log-scaled latency histogram. All updates are
// lock-free atomic operations; the zero value is ready to use and all methods
// are nil-safe.
type Histogram struct {
	buckets [NumBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	min     atomic.Int64 // nanoseconds+1; 0 until the first observation
	max     atomic.Int64 // nanoseconds

	// Exemplar slot: the trace ID of a recent bucket-max observation, kept
	// consistent across its four words by a seqlock (exSeq odd while a write
	// is in flight, 0 until the first capture). Writers that lose the CAS
	// simply drop their candidate — exemplars are best-effort — so the slot
	// adds no locking and no allocation to the observe path.
	exSeq  atomic.Uint64
	exHi   atomic.Uint64 // trace ID bytes 0..7, big-endian
	exLo   atomic.Uint64 // trace ID bytes 8..15, big-endian
	exNS   atomic.Int64  // observed duration, nanoseconds
	exUnix atomic.Int64  // capture wall clock, unix nanoseconds
}

// Observe records one duration. Negative durations clamp to zero. No-op on a
// nil histogram.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	ns := int64(d)
	h.buckets[bucketIndex(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	// min is stored as ns+1 so the zero value means "no observations yet".
	for {
		cur := h.min.Load()
		if cur != 0 && cur-1 <= ns {
			break
		}
		if h.min.CompareAndSwap(cur, ns+1) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if cur >= ns || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// ObserveSince records the time elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start))
}

// exemplarMaxAge bounds how long a retained exemplar outranks smaller-bucket
// observations: past it, any traced observation refreshes the slot so the
// exposed trace ID stays recent enough to still be in a flight recorder.
const exemplarMaxAge = int64(60 * time.Second)

// ObserveTrace records one duration like Observe and, when the observation
// comes from a traced request, offers its trace ID as the histogram's
// exemplar. The slot keeps the trace of a recent bucket-max observation: a
// new observation replaces it when it lands in an equal-or-higher bucket, or
// when the retained exemplar has gone stale. Allocation-free; no-op exemplar
// capture on a zero trace ID.
func (h *Histogram) ObserveTrace(d time.Duration, trace TraceID) {
	if h == nil {
		return
	}
	h.Observe(d)
	if trace.IsZero() {
		return
	}
	if d < 0 {
		d = 0
	}
	now := time.Now().UnixNano()
	s := h.exSeq.Load()
	if s&1 == 1 {
		return // another writer is mid-capture; drop this candidate
	}
	if s != 0 &&
		bucketIndex(d) < bucketIndex(time.Duration(h.exNS.Load())) &&
		now-h.exUnix.Load() < exemplarMaxAge {
		return
	}
	if !h.exSeq.CompareAndSwap(s, s+1) {
		return
	}
	h.exHi.Store(binary.BigEndian.Uint64(trace[:8]))
	h.exLo.Store(binary.BigEndian.Uint64(trace[8:]))
	h.exNS.Store(int64(d))
	h.exUnix.Store(now)
	h.exSeq.Store(s + 2)
}

// Exemplar links a histogram to one recent traced observation — the
// OpenMetrics exemplar the exposition renders on the matching bucket line.
type Exemplar struct {
	// TraceID is the observation's trace (32 hex digits).
	TraceID string `json:"traceId"`
	// ValueSeconds is the observed duration in seconds.
	ValueSeconds float64 `json:"valueSeconds"`
	// Time is when the exemplar was captured.
	Time time.Time `json:"time"`
}

// exemplar reads the slot consistently (retrying a bounded number of times
// if captures race the read); nil when no traced observation was recorded.
func (h *Histogram) exemplar() *Exemplar {
	if h == nil {
		return nil
	}
	for tries := 0; tries < 8; tries++ {
		s1 := h.exSeq.Load()
		if s1 == 0 {
			return nil
		}
		if s1&1 == 1 {
			continue
		}
		hi, lo := h.exHi.Load(), h.exLo.Load()
		ns, unix := h.exNS.Load(), h.exUnix.Load()
		if h.exSeq.Load() != s1 {
			continue
		}
		var t TraceID
		binary.BigEndian.PutUint64(t[:8], hi)
		binary.BigEndian.PutUint64(t[8:], lo)
		return &Exemplar{
			TraceID:      t.String(),
			ValueSeconds: time.Duration(ns).Seconds(),
			Time:         time.Unix(0, unix),
		}
	}
	return nil
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// snapshot captures a consistent-enough view of the histogram (individual
// loads are atomic; the histogram keeps updating concurrently). Count is the
// sum of the bucket counts it loaded, so the "+Inf" row always equals it even
// while observations race the read.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{}
	if h == nil {
		return s
	}
	counts := h.counts()
	for _, c := range counts {
		s.Count += int64(c)
	}
	sum := time.Duration(h.sum.Load())
	s.SumSeconds = sum.Seconds()
	if s.Count > 0 {
		s.MeanSeconds = sum.Seconds() / float64(s.Count)
		if min := h.min.Load(); min > 0 {
			s.MinSeconds = time.Duration(min - 1).Seconds()
		}
		s.MaxSeconds = time.Duration(h.max.Load()).Seconds()
	}
	var cum int64
	for i, c := range counts {
		n := int64(c)
		cum += n
		// Empty finite buckets are elided for compactness; the overflow
		// bucket is always present so every snapshot carries an explicit
		// "+Inf" row whose Cumulative equals Count — the invariant the
		// OpenMetrics exposition (and its agreement test) relies on.
		if n == 0 && i < NumBuckets-1 {
			continue
		}
		le := "+Inf"
		if i < NumBuckets-1 {
			le = BucketBound(i).String()
		}
		s.Buckets = append(s.Buckets, BucketCount{LE: le, Count: n, Cumulative: cum})
	}
	s.P50Seconds = bucketQuantile(&counts, 0.50).Seconds()
	s.P95Seconds = bucketQuantile(&counts, 0.95).Seconds()
	s.P99Seconds = bucketQuantile(&counts, 0.99).Seconds()
	s.Exemplar = h.exemplar()
	return s
}

// counts loads every bucket's count.
func (h *Histogram) counts() (c [NumBuckets]float64) {
	for i := range c {
		c[i] = float64(h.buckets[i].Load())
	}
	return c
}

// Quantile returns the histogram's q-quantile by the Quantile rule, 0 on an
// empty or nil histogram. It reads the live buckets without allocating.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	counts := h.counts()
	return bucketQuantile(&counts, q)
}

// Quantile is THOR's one percentile rule. counts holds the observations in
// each bucket alone and bounds the buckets' upper bounds in ascending order;
// the last bucket is the overflow bucket. The answer is the upper bound of
// the first bucket whose cumulative count reaches q·total (rounded to the
// nearest observation, and at least the first); an answer in the overflow
// bucket reports the bound below it. Returns 0 when every count is zero.
//
// On the Histogram layout, for observations from 1µs up to the last finite
// bound, the nearest-rank quantile is below the answer and at least half of
// it.
func Quantile(bounds, counts []float64, q float64) float64 {
	var total float64
	for _, n := range counts {
		total += n
	}
	if total <= 0 {
		return 0
	}
	target := math.Max(1, math.Floor(q*total+0.5))
	last := len(counts) - 1
	i, cum := 0, counts[0]
	for cum < target && i < last {
		i++
		cum += counts[i]
	}
	if i == last && i > 0 {
		i--
	}
	return bounds[i]
}

// bucketNanos holds every Histogram bucket's upper bound in nanoseconds,
// +Inf for the overflow bucket.
var bucketNanos = func() (b [NumBuckets]float64) {
	for i := 0; i < NumBuckets-1; i++ {
		b[i] = float64(BucketBound(i))
	}
	b[NumBuckets-1] = math.Inf(1)
	return b
}()

// bucketQuantile applies Quantile to counts in the Histogram layout.
func bucketQuantile(counts *[NumBuckets]float64, q float64) time.Duration {
	return time.Duration(Quantile(bucketNanos[:], counts[:], q))
}

// BucketCount is one histogram bucket in a snapshot. Non-empty finite
// buckets are listed in bound order; the overflow ("+Inf") bucket is always
// present, even when empty.
type BucketCount struct {
	// LE is the bucket's inclusive upper bound ("1µs", "2ms", …, "+Inf").
	LE string `json:"le"`
	// Count is the number of observations in this bucket alone.
	Count int64 `json:"count"`
	// Cumulative is the number of observations at or below LE — the
	// Prometheus-style cumulative count. The "+Inf" bucket's Cumulative
	// always equals the histogram's Count.
	Cumulative int64 `json:"cumulative"`
}

// HistogramSnapshot is the JSON-serializable state of one histogram.
type HistogramSnapshot struct {
	// Count is the number of observations.
	Count int64 `json:"count"`
	// SumSeconds and MeanSeconds are the total and average observation.
	SumSeconds float64 `json:"sumSeconds"`
	// MeanSeconds is SumSeconds / Count.
	MeanSeconds float64 `json:"meanSeconds"`
	// MinSeconds and MaxSeconds are the observed extremes.
	MinSeconds float64 `json:"minSeconds"`
	// MaxSeconds is the largest observation.
	MaxSeconds float64 `json:"maxSeconds"`
	// P50Seconds, P95Seconds and P99Seconds are percentiles by the
	// Quantile rule: bucket upper bounds.
	P50Seconds float64 `json:"p50Seconds"`
	// P95Seconds is the 95th percentile.
	P95Seconds float64 `json:"p95Seconds"`
	// P99Seconds is the 99th percentile.
	P99Seconds float64 `json:"p99Seconds"`
	// Buckets is the raw distribution.
	Buckets []BucketCount `json:"buckets,omitempty"`
	// Exemplar is the trace link of a recent bucket-max observation (absent
	// until a traced observation is recorded via ObserveTrace).
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// Snapshot is a point-in-time JSON-serializable view of a Registry.
type Snapshot struct {
	// Counters maps counter names to their current counts.
	Counters map[string]int64 `json:"counters"`
	// Gauges maps gauge names to their current levels (omitted when no
	// gauge is registered).
	Gauges map[string]int64 `json:"gauges,omitempty"`
	// FloatGauges maps float-gauge names to their current levels (omitted
	// when none is registered).
	FloatGauges map[string]float64 `json:"floatGauges,omitempty"`
	// Histograms maps histogram names to their snapshots.
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	// Distributions maps distribution names to their count and extremes
	// (omitted when none is registered).
	Distributions map[string]DistributionSnapshot `json:"distributions,omitempty"`
}

// Registry holds named counters, gauges, float gauges, histograms and
// distributions. A nil *Registry is a valid disabled registry: every
// accessor returns a nil instrument whose methods no-op without allocating.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	fgauges  map[string]*FloatGauge
	hists    map[string]*Histogram
	dists    map[string]*Distribution
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		fgauges:  make(map[string]*FloatGauge),
		hists:    make(map[string]*Histogram),
		dists:    make(map[string]*Distribution),
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// (a valid no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil (a
// valid no-op gauge) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// FloatGauge returns the named float gauge, creating it on first use.
// Returns nil (a valid no-op gauge) on a nil registry.
func (r *Registry) FloatGauge(name string) *FloatGauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.fgauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.fgauges[name]; g == nil {
		g = &FloatGauge{}
		r.fgauges[name] = g
	}
	return g
}

// Distribution returns the named distribution, creating it on first use.
// Returns nil (a valid no-op distribution) on a nil registry.
func (r *Registry) Distribution(name string) *Distribution {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	d := r.dists[name]
	r.mu.RUnlock()
	if d != nil {
		return d
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if d = r.dists[name]; d == nil {
		d = &Distribution{}
		r.dists[name] = d
	}
	return d
}

// Histogram returns the named histogram, creating it on first use. Returns
// nil (a valid no-op histogram) on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Names returns the sorted names of all registered instruments.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0,
		len(r.counters)+len(r.gauges)+len(r.fgauges)+len(r.hists)+len(r.dists))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.fgauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	for n := range r.dists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot captures the current state of every instrument. Safe to call
// while the registry is being updated; returns an empty snapshot on nil.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	fgauges := make(map[string]*FloatGauge, len(r.fgauges))
	for n, g := range r.fgauges {
		fgauges[n] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	dists := make(map[string]*Distribution, len(r.dists))
	for n, d := range r.dists {
		dists[n] = d
	}
	r.mu.RUnlock()
	for n, c := range counters {
		s.Counters[n] = c.Value()
	}
	if len(gauges) > 0 {
		s.Gauges = make(map[string]int64, len(gauges))
		for n, g := range gauges {
			s.Gauges[n] = g.Value()
		}
	}
	if len(fgauges) > 0 {
		s.FloatGauges = make(map[string]float64, len(fgauges))
		for n, g := range fgauges {
			s.FloatGauges[n] = g.Value()
		}
	}
	for n, h := range hists {
		s.Histograms[n] = h.snapshot()
	}
	if len(dists) > 0 {
		s.Distributions = make(map[string]DistributionSnapshot, len(dists))
		for n, d := range dists {
			s.Distributions[n] = d.Snapshot()
		}
	}
	return s
}
