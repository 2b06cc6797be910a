package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"thor/internal/obs"
	"thor/internal/promtext"
)

// InstanceStatus is one polled thord instance's view.
type InstanceStatus struct {
	// Target is the instance's host:port as given on the command line.
	Target string `json:"target"`
	// Err is the poll failure, if any; the other fields are then zero.
	Err string `json:"error,omitempty"`
	// Ready reports a 200 from /readyz.
	Ready bool `json:"ready"`
	// ReadyDetail is /readyz's status string ("ok", "degraded", "draining").
	ReadyDetail string `json:"readyDetail,omitempty"`
	// Degraded reports the thor_slo_degraded gauge (falls back to the
	// /readyz detail when the gauge is absent).
	Degraded bool `json:"degraded"`
	// Shard is the shard the instance reports on /readyz (empty when the
	// instance runs unsharded).
	Shard string `json:"shard,omitempty"`
	// TableVersion is the instance's live-table version (the
	// thor_table_version gauge); zero when the instance predates live tables.
	TableVersion uint64 `json:"tableVersion,omitempty"`
	// Goroutines and HeapBytes are the instance's runtime gauges.
	Goroutines int64 `json:"goroutines"`
	// HeapBytes is the live heap size in bytes.
	HeapBytes int64 `json:"heapBytes"`
	// Counters holds the instance's counter families, summed across label
	// sets (e.g. "serve_fill_requests" -> total requests).
	Counters map[string]float64 `json:"counters,omitempty"`
	// Families is the number of metric families scraped.
	Families int `json:"families"`

	exp *promtext.Exposition
}

// MergedHistogram is one histogram family merged across the fleet by
// summing per-bucket counts — the quantiles equal those of one histogram
// that saw every instance's observations.
type MergedHistogram struct {
	// Count is the total observation count across instances.
	Count float64 `json:"count"`
	// Sum is the summed _sum across instances.
	Sum float64 `json:"sum"`
	// P50, P90 and P99 are quantiles of the merged distribution by the
	// obs.Quantile rule (bucket upper bounds), in the family's native unit
	// (seconds).
	P50 float64 `json:"p50"`
	// P90 is the merged 90th percentile.
	P90 float64 `json:"p90"`
	// P99 is the merged 99th percentile.
	P99 float64 `json:"p99"`
	// Instances is the number of instances contributing observations.
	Instances int `json:"instances"`
}

// FleetStatus is one aggregation pass over every target.
type FleetStatus struct {
	// PolledAt is the aggregation wall-clock time.
	PolledAt time.Time `json:"polledAt"`
	// Instances are the per-target views, in command-line order.
	Instances []InstanceStatus `json:"instances"`
	// Histograms maps histogram family names to their fleet-wide merges.
	Histograms map[string]MergedHistogram `json:"histograms,omitempty"`
	// Counters sums counter families fleet-wide.
	Counters map[string]float64 `json:"counters,omitempty"`
	// Degraded lists the targets currently degraded or unreachable.
	Degraded []string `json:"degraded,omitempty"`
	// VersionSkew lists shards whose replicas disagree on the live-table
	// version — replicas of one shard answering from different table
	// contents, which thorctl exits 1 on. Unsharded instances are compared as
	// one group.
	VersionSkew []string `json:"versionSkew,omitempty"`
}

// pollInstance scrapes one target's /readyz and /metrics.
func pollInstance(client *http.Client, target string) InstanceStatus {
	st := InstanceStatus{Target: target}
	base := "http://" + target

	if resp, err := client.Get(base + "/readyz"); err != nil {
		st.Err = fmt.Sprintf("readyz: %v", err)
		return st
	} else {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		st.Ready = resp.StatusCode == http.StatusOK
		var rz struct {
			Status string `json:"status"`
			Shard  string `json:"shard"`
		}
		if json.Unmarshal(body, &rz) == nil {
			st.ReadyDetail = rz.Status
			st.Shard = rz.Shard
		}
	}

	resp, err := client.Get(base + "/metrics")
	if err != nil {
		st.Err = fmt.Sprintf("metrics: %v", err)
		return st
	}
	defer resp.Body.Close()
	exp, err := promtext.Parse(resp.Body)
	if err != nil {
		st.Err = fmt.Sprintf("metrics: %v", err)
		return st
	}
	st.exp = exp
	st.Families = len(exp.Families)
	st.Counters = make(map[string]float64)
	for name, f := range exp.Families {
		switch f.Type {
		case "counter":
			for _, s := range f.Samples {
				if strings.HasSuffix(s.Name, "_total") {
					st.Counters[name] += s.Value
				}
			}
		case "gauge":
			switch name {
			case "go_goroutines":
				if len(f.Samples) > 0 {
					st.Goroutines = int64(f.Samples[0].Value)
				}
			case "go_memory_heap_objects_bytes":
				if len(f.Samples) > 0 {
					st.HeapBytes = int64(f.Samples[0].Value)
				}
			case "thor_slo_degraded":
				if len(f.Samples) > 0 && f.Samples[0].Value >= 1 {
					st.Degraded = true
				}
			case "thor_table_version":
				if len(f.Samples) > 0 && f.Samples[0].Value > 0 {
					st.TableVersion = uint64(f.Samples[0].Value)
				}
			}
		}
	}
	if !st.Degraded && st.ReadyDetail == "degraded" {
		st.Degraded = true
	}
	return st
}

// poll scrapes every target concurrently and merges the fleet view.
func poll(client *http.Client, targets []string, now time.Time) *FleetStatus {
	fs := &FleetStatus{
		PolledAt:   now,
		Instances:  make([]InstanceStatus, len(targets)),
		Histograms: make(map[string]MergedHistogram),
		Counters:   make(map[string]float64),
	}
	var wg sync.WaitGroup
	for i, target := range targets {
		wg.Add(1)
		go func(i int, target string) {
			defer wg.Done()
			fs.Instances[i] = pollInstance(client, target)
		}(i, target)
	}
	wg.Wait()

	merge := newHistMerger()
	for _, inst := range fs.Instances {
		if inst.Err != "" || inst.Degraded || !inst.Ready {
			fs.Degraded = append(fs.Degraded, inst.Target)
		}
		if inst.exp == nil {
			continue
		}
		for name, v := range inst.Counters {
			fs.Counters[name] += v
		}
		for name, f := range inst.exp.Families {
			if f.Type == "histogram" {
				merge.add(name, f)
			}
		}
	}
	for name, m := range merge.families {
		fs.Histograms[name] = m.merged()
	}
	sort.Strings(fs.Degraded)
	fs.VersionSkew = versionSkew(fs.Instances)
	return fs
}

// versionSkew groups reachable instances by shard and reports every shard
// whose members disagree on the live-table version. A replica set serving two
// table versions at once means a mutation reached some replicas and not
// others — responses depend on which replica the router picks. Instances
// predating live tables (version 0) are skipped rather than counted as skew.
func versionSkew(instances []InstanceStatus) []string {
	type group struct {
		versions map[uint64]bool
		min, max uint64
	}
	byShard := make(map[string]*group)
	for _, inst := range instances {
		if inst.Err != "" || inst.TableVersion == 0 {
			continue
		}
		g := byShard[inst.Shard]
		if g == nil {
			g = &group{versions: make(map[uint64]bool), min: inst.TableVersion, max: inst.TableVersion}
			byShard[inst.Shard] = g
		}
		g.versions[inst.TableVersion] = true
		if inst.TableVersion < g.min {
			g.min = inst.TableVersion
		}
		if inst.TableVersion > g.max {
			g.max = inst.TableVersion
		}
	}
	var skew []string
	for shard, g := range byShard {
		if len(g.versions) <= 1 {
			continue
		}
		name := shard
		if name == "" {
			name = "(unsharded)"
		}
		skew = append(skew, fmt.Sprintf("%s: v%d..v%d across %d versions", name, g.min, g.max, len(g.versions)))
	}
	sort.Strings(skew)
	return skew
}

// histMerger accumulates per-bucket counts per histogram family across
// instances, keyed by le bound.
type histMerger struct {
	families map[string]*histAcc
}

// histAcc is one family's accumulated state.
type histAcc struct {
	byLE      map[float64]float64 // observations in each bucket alone
	count     float64
	sum       float64
	instances int
}

func newHistMerger() *histMerger {
	return &histMerger{families: make(map[string]*histAcc)}
}

// add folds one instance's family into the accumulator, collapsing label
// sets: thorctl's fleet view is per family, so per-label series (concepts,
// streams) of the same family merge together. A series lists cumulative
// counts for its non-empty buckets only, so each series is differenced back
// into per-bucket counts before summing: a bucket one series leaves out then
// adds nothing, where summing cumulative counts would add zero to its CDF.
func (m *histMerger) add(name string, f *promtext.Family) {
	acc := m.families[name]
	if acc == nil {
		// Start from the obs bucket layout, so an answer in the overflow
		// bucket reports the same last finite bound as one registry would.
		acc = &histAcc{byLE: map[float64]float64{math.Inf(1): 0}}
		for i := 0; i < obs.NumBuckets-1; i++ {
			acc.byLE[obs.BucketBound(i).Seconds()] = 0
		}
		m.families[name] = acc
	}
	type bucket struct{ le, cum float64 }
	series := make(map[string][]bucket)
	contributed := false
	for _, s := range f.Samples {
		switch s.Name {
		case name + "_bucket":
			le, err := parseLE(s.Label("le"))
			if err != nil {
				continue
			}
			key := seriesKey(s)
			series[key] = append(series[key], bucket{le, s.Value})
		case name + "_count":
			acc.count += s.Value
			if s.Value > 0 {
				contributed = true
			}
		case name + "_sum":
			acc.sum += s.Value
		}
	}
	for _, bs := range series {
		sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
		prev := 0.0
		for _, b := range bs {
			acc.byLE[b.le] += b.cum - prev
			prev = b.cum
		}
	}
	if contributed {
		acc.instances++
	}
}

// seriesKey identifies a bucket sample's series: its label set minus le.
func seriesKey(s promtext.Sample) string {
	rest := promtext.Sample{Labels: make(map[string]string, len(s.Labels))}
	for k, v := range s.Labels {
		if k != "le" {
			rest.Labels[k] = v
		}
	}
	return rest.LabelString()
}

// parseLE parses a bucket bound, accepting the exposition infinities.
func parseLE(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "":
		return 0, fmt.Errorf("missing le")
	}
	var v float64
	_, err := fmt.Sscanf(s, "%g", &v)
	return v, err
}

// merged folds the accumulated buckets into quantiles.
func (a *histAcc) merged() MergedHistogram {
	bounds := make([]float64, 0, len(a.byLE))
	for le := range a.byLE {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	counts := make([]float64, len(bounds))
	for i, le := range bounds {
		counts[i] = a.byLE[le]
	}
	return MergedHistogram{
		Count:     a.count,
		Sum:       a.sum,
		P50:       obs.Quantile(bounds, counts, 0.50),
		P90:       obs.Quantile(bounds, counts, 0.90),
		P99:       obs.Quantile(bounds, counts, 0.99),
		Instances: a.instances,
	}
}
