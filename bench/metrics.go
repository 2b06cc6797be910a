package main

import (
	"math"
	"sort"
	"time"
)

// metrics turns what the run measured into named metrics: the end-to-end
// ones, the per-layer ones and the extra layer values only the run record
// keeps.
func (r *runner) metrics() map[string]metric {
	res := &r.res
	m := make(map[string]metric, len(res.layer)+32)
	for k, v := range res.layer {
		m[k] = v
	}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	setup := make([]float64, len(res.setup))
	for i, d := range res.setup {
		setup[i] = d.Seconds()
	}
	lat := make([]float64, len(res.ops))
	for i, d := range res.ops {
		lat[i] = ms(d)
	}
	sort.Float64s(lat)
	tail, q := tailOf(lat)
	docs := float64(res.docs)
	put("setup_s", "s", medianOf(setup))
	put("docs_per_s", "1/s", ratio(docs, res.elapsed.Seconds()))
	put("fill_p50_ms", "ms", quantile(lat, 0.5))
	put("fill_tail_ms", "ms", tail)
	put("fill_tail_quantile", "ratio", q)
	put("peak_heap_mb", "MB", float64(res.peakHeap)/1e6)
	put("failed_frac", "ratio", ratio(float64(res.failed), float64(res.attempted)))

	stage := func(names ...string) (total, calls float64) {
		for _, n := range names {
			if s := res.stages[n]; s != nil {
				total += s.ms
				calls += float64(s.calls)
			}
		}
		return total, calls
	}
	analyze, _ := stage("segment", "pos_tag", "dep_parse", "phrase_extract")
	put("thor.analyze_ms_per_doc", "ms", ratio(analyze, docs))
	for _, s := range [][2]string{{"segment", "segment"}, {"pos", "pos_tag"}, {"dep", "dep_parse"}, {"phrase", "phrase_extract"}} {
		total, calls := stage(s[1])
		put(s[0]+".ms_per_doc", "ms", ratio(total, docs))
		put(s[0]+".calls_per_doc", "count", ratio(calls, docs))
	}
	total, calls := stage("match")
	put("matcher.match_ms_per_doc", "ms", ratio(total, docs))
	put("matcher.match_calls_per_doc", "count", ratio(calls, docs))
	total, _ = stage("refine")
	put("thor.refine_ms_per_doc", "ms", ratio(total, docs))
	put("thor.run_ms_p50", "ms", medianOf(res.runMS))
	put("thor.batch_docs_mean", "count", meanOf(res.batchDocs))
	put("embed.quant_pass_ratio", "ratio", ratio(float64(res.quant[1]), float64(res.quant[0]+res.quant[1])))
	put("runtime.allocs_per_doc", "count", ratio(float64(res.rt.allocObjs), docs))
	put("runtime.alloc_bytes_per_doc", "B", ratio(float64(res.rt.allocBytes), docs))
	put("runtime.gc_per_kdoc", "count", ratio(1000*float64(res.rt.gcs), docs))
	put("bench.trace_overhead_frac", "ratio", r.spans.overhead())
	// Layers a workload does not pass through did no work on it.
	for _, name := range []string{"router.backend_calls_per_req", "tablestore.invalidated_per_mutation"} {
		if _, ok := m[name]; !ok {
			put(name, "count", 0)
		}
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func meanOf(x []float64) float64 {
	var sum float64
	for _, v := range x {
		sum += v
	}
	return ratio(sum, float64(len(x)))
}

// medianOf is the median of x, interpolating between the middle two.
func medianOf(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianDur(d []time.Duration) float64 {
	x := make([]float64, len(d))
	for i, v := range d {
		x[i] = ms(v)
	}
	return medianOf(x)
}

// quantile is the nearest-rank q-quantile of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// tailOf is the tail latency of sorted: the p99, or, when fewer than ten
// samples lie beyond it, the highest nearest-rank percentile that still has
// ten beyond it. Runs of ten samples or fewer report their maximum. It also
// returns the quantile used.
func tailOf(sorted []float64) (v, q float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	i := min(int(math.Ceil(0.99*float64(n)))-1, n-11)
	if i < 0 {
		i = n - 1
	}
	return sorted[i], float64(i+1) / float64(n)
}

// quartiles returns the first quartile, median and third quartile of x the
// way Python's statistics.quantiles(x, n=4) computes them.
func quartiles(x []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
