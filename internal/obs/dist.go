package obs

import "sync"

// Distribution is a concurrency-safe summary of unitless values —
// assignment scores, ratios, sizes — that keeps their exact count, minimum
// and maximum. It reports no percentiles: those come from Histogram buckets
// (see Quantile), whose duration layout does not fit unitless values. The
// zero value is ready to use; all methods are nil-safe.
type Distribution struct {
	mu       sync.Mutex
	count    int64
	min, max float64
}

// Observe adds one value. No-op on a nil distribution.
func (d *Distribution) Observe(v float64) {
	if d == nil {
		return
	}
	d.mu.Lock()
	if d.count == 0 || v < d.min {
		d.min = v
	}
	if d.count == 0 || v > d.max {
		d.max = v
	}
	d.count++
	d.mu.Unlock()
}

// DistributionSnapshot is the JSON-serializable state of one distribution.
type DistributionSnapshot struct {
	// Count is the number of observations.
	Count int64 `json:"count"`
	// Min and Max are the exact observed extremes.
	Min float64 `json:"min"`
	// Max is the exact largest observation.
	Max float64 `json:"max"`
}

// Snapshot summarizes the distribution. Safe to call concurrently with
// Observe; returns a zero snapshot on nil.
func (d *Distribution) Snapshot() DistributionSnapshot {
	if d == nil {
		return DistributionSnapshot{}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return DistributionSnapshot{Count: d.count, Min: d.min, Max: d.max}
}
