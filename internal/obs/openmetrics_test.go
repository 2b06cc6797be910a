package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"thor/internal/promtext"
)

func TestLabeledName(t *testing.T) {
	cases := []struct {
		family string
		kv     []string
		want   string
	}{
		{"thor.sparsity.fill_rate", nil, "thor.sparsity.fill_rate"},
		{"f", []string{"concept", "Anatomy"}, `f{concept="Anatomy"}`},
		{"f", []string{"a", "1", "b", "2"}, `f{a="1",b="2"}`},
		{"f", []string{"q", `say "hi"`}, `f{q="say \"hi\""}`},
		{"f", []string{"odd"}, "f"},
	}
	for _, c := range cases {
		if got := LabeledName(c.family, c.kv...); got != c.want {
			t.Errorf("LabeledName(%q, %v) = %q, want %q", c.family, c.kv, got, c.want)
		}
		fam, _ := splitLabeled(c.want)
		if fam != c.family {
			t.Errorf("splitLabeled(%q) family = %q, want %q", c.want, fam, c.family)
		}
	}
}

// render runs the exposition and parses it back through the promtext
// linter, failing the test on any syntax error or lint finding.
func render(t *testing.T, reg *Registry, slo *SLO, runtime bool) *promtext.Exposition {
	t.Helper()
	var sb strings.Builder
	if err := WriteOpenMetrics(&sb, reg, slo, runtime); err != nil {
		t.Fatalf("WriteOpenMetrics: %v", err)
	}
	exp, err := promtext.Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, sb.String())
	}
	if probs := promtext.Lint(exp); len(probs) > 0 {
		t.Fatalf("exposition does not lint: %v\n%s", probs, sb.String())
	}
	return exp
}

// TestOpenMetricsLintsUnderConcurrentObserve scrapes the exposition 2000
// times while two goroutines observe one histogram: every scrape must lint,
// so no snapshot may report a _count that disagrees with its +Inf bucket.
func TestOpenMetricsLintsUnderConcurrentObserve(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("race.latency")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(time.Duration(g*7+i%4096) * time.Microsecond)
			}
		}(g)
	}
	failed, first := 0, ""
	var sb strings.Builder
	for i := 0; i < 2000; i++ {
		sb.Reset()
		if err := WriteOpenMetrics(&sb, reg, nil, false); err != nil {
			failed++
			first = err.Error()
			continue
		}
		exp, err := promtext.Parse(strings.NewReader(sb.String()))
		if err != nil {
			failed++
			first = err.Error()
			continue
		}
		if probs := promtext.Lint(exp); len(probs) > 0 {
			if failed == 0 {
				first = probs[0].String()
			}
			failed++
		}
	}
	close(stop)
	wg.Wait()
	if failed > 0 {
		t.Fatalf("%d of 2000 scrapes failed lint; first: %s", failed, first)
	}
}

// TestOpenMetricsAgreesWithSnapshot is the /debug/vars–/metrics agreement
// guard: the JSON HistogramSnapshot and the exposition must report the
// same totals, the same cumulative bucket counts and the same +Inf bucket.
func TestOpenMetricsAgreesWithSnapshot(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("thor.docs").Add(42)
	reg.Gauge("thor.queue.depth").Set(7)
	reg.FloatGauge("thor.sparsity.null_density").Set(0.375)
	h := reg.Histogram("thor.stage.match")
	for _, d := range []time.Duration{time.Microsecond, time.Millisecond, 5 * time.Millisecond, 3 * time.Second} {
		h.Observe(d)
	}
	d := reg.Distribution("thor.score")
	for _, v := range []float64{0.1, 0.5, 0.9} {
		d.Observe(v)
	}

	snap := reg.Snapshot()
	exp := render(t, reg, nil, false)

	// Counter totals agree.
	cf := exp.Family("thor_docs")
	if cf == nil || cf.Samples[0].Value != float64(snap.Counters["thor.docs"]) {
		t.Fatalf("thor_docs_total disagrees with snapshot: %+v vs %d", cf, snap.Counters["thor.docs"])
	}
	// Gauges agree.
	if gf := exp.Family("thor_queue_depth"); gf == nil || gf.Samples[0].Value != 7 {
		t.Fatalf("thor_queue_depth disagrees: %+v", gf)
	}
	if gf := exp.Family("thor_sparsity_null_density"); gf == nil || gf.Samples[0].Value != 0.375 {
		t.Fatalf("thor_sparsity_null_density disagrees: %+v", gf)
	}

	// Histogram totals, cumulative buckets and +Inf agree.
	hs := snap.Histograms["thor.stage.match"]
	hf := exp.Family("thor_stage_match_seconds")
	if hf == nil {
		t.Fatalf("histogram family missing")
	}
	var expCount, expSum float64
	var infBucket float64
	buckets := 0
	for _, s := range hf.Samples {
		switch s.Name {
		case "thor_stage_match_seconds_count":
			expCount = s.Value
		case "thor_stage_match_seconds_sum":
			expSum = s.Value
		case "thor_stage_match_seconds_bucket":
			buckets++
			if s.Label("le") == "+Inf" {
				infBucket = s.Value
			}
		}
	}
	if expCount != float64(hs.Count) {
		t.Fatalf("_count %g != snapshot count %d", expCount, hs.Count)
	}
	if math.Abs(expSum-hs.SumSeconds) > 1e-9 {
		t.Fatalf("_sum %g != snapshot sum %g", expSum, hs.SumSeconds)
	}
	if infBucket != float64(hs.Count) {
		t.Fatalf("+Inf bucket %g != snapshot count %d", infBucket, hs.Count)
	}
	if buckets != len(hs.Buckets) {
		t.Fatalf("exposition has %d buckets, snapshot %d", buckets, len(hs.Buckets))
	}
	// Snapshot's own +Inf invariant.
	last := hs.Buckets[len(hs.Buckets)-1]
	if last.LE != "+Inf" || last.Cumulative != hs.Count {
		t.Fatalf("snapshot +Inf bucket wrong: %+v (count %d)", last, hs.Count)
	}

	// Distribution quantiles surface as a lint-clean summary.
	df := exp.Family("thor_score")
	if df == nil || df.Type != "summary" {
		t.Fatalf("distribution family missing or mistyped: %+v", df)
	}
	var dcount float64
	for _, s := range df.Samples {
		if s.Name == "thor_score_count" {
			dcount = s.Value
		}
	}
	if dcount != float64(snap.Distributions["thor.score"].Count) {
		t.Fatalf("summary _count %g != snapshot %d", dcount, snap.Distributions["thor.score"].Count)
	}
}

// TestOpenMetricsLabels checks labeled instruments merge into one family
// with per-label series.
func TestOpenMetricsLabels(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(LabeledName("thor.sparsity.cells_filled", "concept", "Anatomy")).Add(3)
	reg.Counter(LabeledName("thor.sparsity.cells_filled", "concept", "Disease")).Add(5)
	exp := render(t, reg, nil, false)
	f := exp.Family("thor_sparsity_cells_filled")
	if f == nil || f.Type != "counter" || len(f.Samples) != 2 {
		t.Fatalf("labeled counter family wrong: %+v", f)
	}
	byConcept := map[string]float64{}
	for _, s := range f.Samples {
		byConcept[s.Label("concept")] = s.Value
	}
	if byConcept["Anatomy"] != 3 || byConcept["Disease"] != 5 {
		t.Fatalf("labeled series wrong: %v", byConcept)
	}
}

// TestOpenMetricsSLO checks the SLO engine's streams render as summaries
// with burn-rate and degraded gauges.
func TestOpenMetricsSLO(t *testing.T) {
	now := time.Unix(1000, 0)
	slo := NewSLO(SLOConfig{
		Latency: 10 * time.Millisecond, MinSamples: 1,
		Now: func() time.Time { return now },
	})
	for i := 0; i < 20; i++ {
		slo.Observe("fill", 50*time.Millisecond, false) // all slow: violating
	}
	slo.Track("stage.match", time.Millisecond)
	exp := render(t, nil, slo, false)

	lf := exp.Family("thor_slo_latency_seconds")
	if lf == nil || lf.Type != "summary" {
		t.Fatalf("latency family missing: %+v", lf)
	}
	streams := map[string]bool{}
	for _, s := range lf.Samples {
		streams[s.Label("stream")] = true
	}
	if !streams["fill"] || !streams["stage.match"] {
		t.Fatalf("streams missing: %v", streams)
	}
	if f := exp.Family("thor_slo_burn_rate"); f == nil || len(f.Samples) != 1 || f.Samples[0].Label("stream") != "fill" {
		t.Fatalf("burn rate should cover judged streams only: %+v", f)
	}
	if f := exp.Family("thor_slo_degraded"); f == nil || f.Samples[0].Value != 1 {
		t.Fatalf("degraded gauge should be 1: %+v", f)
	}
}

// TestOpenMetricsRuntime checks the runtime/metrics section is present and
// lint-clean on whatever Go version runs the tests.
func TestOpenMetricsRuntime(t *testing.T) {
	exp := render(t, nil, nil, true)
	if f := exp.Family("go_goroutines"); f == nil || f.Samples[0].Value < 1 {
		t.Fatalf("go_goroutines missing or absurd: %+v", f)
	}
	if f := exp.Family("go_gc_heap_allocs_bytes"); f == nil || f.Type != "counter" {
		t.Fatalf("go_gc_heap_allocs_bytes missing: %+v", f)
	}
	if f := exp.Family("go_sched_latencies_seconds"); f == nil || f.Type != "histogram" {
		t.Fatalf("go_sched_latencies_seconds missing: %+v", f)
	}
}

// TestMetricsEndpointMatchesDebugVars is the satellite-1 end-to-end check:
// GET /metrics and the JSON debug endpoint served by the same handler
// report identical totals.
func TestMetricsEndpointMatchesDebugVars(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("thor.docs").Add(9)
	reg.Histogram("thor.stage.fill").Observe(2 * time.Millisecond)

	srv := httptest.NewServer(DebugHandler(DebugOptions{Registry: reg}))
	defer srv.Close()

	exp, err := promtext.Parse(strings.NewReader(string(get(t, srv, "/metrics"))))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	if probs := promtext.Lint(exp); len(probs) > 0 {
		t.Fatalf("/metrics does not lint: %v", probs)
	}
	snap := reg.Snapshot()
	if f := exp.Family("thor_docs"); f == nil || f.Samples[0].Value != float64(snap.Counters["thor.docs"]) {
		t.Fatalf("counter disagrees across endpoints")
	}
	var cnt float64
	for _, s := range exp.Family("thor_stage_fill_seconds").Samples {
		if s.Name == "thor_stage_fill_seconds_count" {
			cnt = s.Value
		}
	}
	if cnt != float64(snap.Histograms["thor.stage.fill"].Count) {
		t.Fatalf("histogram count disagrees across endpoints")
	}
}

// TestTwoDebugHandlersOneProcess is the duplicate-registration regression
// guard: two registries, two SLO engines, two debug handlers and repeated
// expvar publication in one process must not panic.
func TestTwoDebugHandlersOneProcess(t *testing.T) {
	regA, regB := NewRegistry(), NewRegistry()
	regA.Counter("thor.docs").Add(1)
	regB.Counter("thor.docs").Add(2)
	regA.PublishExpvar("thor-test-dup")
	regB.PublishExpvar("thor-test-dup") // same name: second publish is a no-op
	sloA, sloB := NewSLO(SLOConfig{}), NewSLO(SLOConfig{})
	sloA.PublishExpvar("thor-test-dup-slo")
	sloB.PublishExpvar("thor-test-dup-slo")

	srvA := httptest.NewServer(DebugHandler(DebugOptions{Registry: regA, SLO: sloA}))
	defer srvA.Close()
	srvB := httptest.NewServer(DebugHandler(DebugOptions{Registry: regB, SLO: sloB}))
	defer srvB.Close()

	// Both serve their own registry on /metrics.
	for srv, want := range map[*httptest.Server]string{srvA: "thor_docs_total 1", srvB: "thor_docs_total 2"} {
		if body := string(get(t, srv, "/metrics")); !strings.Contains(body, want) {
			t.Fatalf("missing %q in /metrics:\n%s", want, body)
		}
	}
	// And both still expose expvar.
	if body := string(get(t, srvA, "/debug/vars")); !strings.Contains(body, "thor-test-dup") {
		t.Fatalf("expvar publication lost: %.120s", body)
	}
}
