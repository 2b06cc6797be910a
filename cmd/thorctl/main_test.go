package main

import (
	"bytes"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"thor/internal/embed"
	"thor/internal/obs"
	"thor/internal/promtext"
	"thor/internal/schema"
	"thor/internal/serve"
)

// startInstance boots one in-process serving engine over the shared fixture
// and returns its host:port plus the engine's SLO (so tests can degrade it).
func startInstance(t *testing.T) (string, *obs.SLO) {
	t.Helper()
	table := schema.NewTable(schema.NewSchema("Disease", "Anatomy", "Complication"))
	table.AddRow("Acoustic Neuroma").Add("Anatomy", "nervous system")
	table.AddRow("Malaria")
	space := embed.NewSpace()
	for _, w := range []string{"nervous", "system", "brain", "nerve"} {
		space.Add(w, embed.Blend(embed.HashVector("ex:anatomy"), embed.HashVector("ex-noise:"+w), 0.6))
	}
	slo := obs.NewSLO(obs.SLOConfig{Latency: 50 * time.Millisecond, MinSamples: 5})
	s, err := serve.NewServer(serve.Options{
		Table: table, Space: space, Tau: 0.6, Workers: 2,
		Metrics: obs.NewRegistry(), SLO: slo,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return strings.TrimPrefix(ts.URL, "http://"), slo
}

// TestFleetAggregation polls two live serving instances — one driven
// degraded — and checks the merged fleet view: the degraded instance is
// surfaced, merged histogram quantiles are monotone, and counters sum
// across instances.
func TestFleetAggregation(t *testing.T) {
	healthyAddr, _ := startInstance(t)
	degradedAddr, degradedSLO := startInstance(t)

	client := &http.Client{Timeout: 5 * time.Second}
	fill := func(addr string) {
		resp, err := client.Post("http://"+addr+"/v1/fill", "application/json",
			strings.NewReader(`{"documents":[{"name":"d","default_subject":"Malaria","text":"Malaria damages the nervous system."}]}`))
		if err != nil {
			t.Fatalf("fill %s: %v", addr, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fill %s: status %d", addr, resp.StatusCode)
		}
	}
	fill(healthyAddr)
	fill(degradedAddr)
	// Burn the second instance's error budget directly: every judged
	// observation errored, well past MinSamples.
	for i := 0; i < 20; i++ {
		degradedSLO.Observe("fill", 100*time.Millisecond, true)
	}

	st := poll(client, []string{healthyAddr, degradedAddr}, time.Unix(1754000000, 0))

	if len(st.Instances) != 2 {
		t.Fatalf("polled %d instances, want 2", len(st.Instances))
	}
	for _, inst := range st.Instances {
		if inst.Err != "" {
			t.Fatalf("instance %s unreachable: %s", inst.Target, inst.Err)
		}
		if inst.Goroutines <= 0 || inst.HeapBytes <= 0 {
			t.Errorf("instance %s runtime gauges not scraped: %+v", inst.Target, inst)
		}
	}

	// The degraded instance — and only it — is surfaced.
	if len(st.Degraded) != 1 || st.Degraded[0] != degradedAddr {
		t.Fatalf("degraded = %v, want exactly [%s]", st.Degraded, degradedAddr)
	}

	// Counters sum across the fleet: one fill request per instance.
	if got := st.Counters["serve_fill_requests"]; got != 2 {
		t.Errorf("fleet serve_fill_requests = %v, want 2", got)
	}

	// Merged histogram quantiles are monotone and populated for the
	// request-latency family both instances observed.
	h, ok := st.Histograms["serve_http_fill_seconds"]
	if !ok {
		t.Fatalf("serve_http_fill_seconds not merged: %v", st.Histograms)
	}
	if h.Count < 2 {
		t.Errorf("merged count = %v, want >= 2", h.Count)
	}
	if h.Instances != 2 {
		t.Errorf("contributing instances = %d, want 2", h.Instances)
	}
	if !(h.P50 <= h.P90 && h.P90 <= h.P99) {
		t.Errorf("merged quantiles not monotone: p50=%v p90=%v p99=%v", h.P50, h.P90, h.P99)
	}
	if h.P99 <= 0 {
		t.Errorf("merged p99 = %v, want > 0", h.P99)
	}
	for name, m := range st.Histograms {
		if !(m.P50 <= m.P90 && m.P90 <= m.P99) {
			t.Errorf("family %s quantiles not monotone: %+v", name, m)
		}
	}

	// The one-shot exit path flags the degradation.
	var out, errb strings.Builder
	code := run([]string{"-targets", healthyAddr + "," + degradedAddr}, &out, &errb)
	if code != 1 {
		t.Errorf("one-shot exit = %d with a degraded instance, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), degradedAddr) || !strings.Contains(out.String(), "true") {
		t.Errorf("status table does not surface the degraded instance:\n%s", out.String())
	}

	// -json mode emits parseable FleetStatus.
	out.Reset()
	code = run([]string{"-targets", healthyAddr, "-json"}, &out, &errb)
	if code != 0 {
		t.Errorf("healthy one-shot exit = %d, want 0\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), `"instances"`) {
		t.Errorf("-json output unexpected:\n%s", out.String())
	}
}

// startVersionedInstance boots a serving engine at a fixed live-table
// version, optionally sharded.
func startVersionedInstance(t *testing.T, version uint64, shard string) string {
	t.Helper()
	table := schema.NewTable(schema.NewSchema("Disease", "Anatomy"))
	table.AddRow("Malaria")
	s, err := serve.NewServer(serve.Options{
		Table: table, Space: embed.NewSpace(), Tau: 0.6, Workers: 1,
		Metrics: obs.NewRegistry(), TableVersion: version, ShardID: shard,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return strings.TrimPrefix(ts.URL, "http://")
}

// TestTableVersionSkew drives the live-table version check: replicas of one
// shard serving different table versions are flagged (and fail the one-shot
// exit code), while matching replicas — and skew across *different* shards —
// stay green.
func TestTableVersionSkew(t *testing.T) {
	client := &http.Client{Timeout: 5 * time.Second}

	// Same shard, same version: clean.
	a1 := startVersionedInstance(t, 4, "shard-a")
	a2 := startVersionedInstance(t, 4, "shard-a")
	st := poll(client, []string{a1, a2}, time.Unix(1754000000, 0))
	if len(st.VersionSkew) != 0 {
		t.Fatalf("matching replicas flagged: %v", st.VersionSkew)
	}
	for _, inst := range st.Instances {
		if inst.TableVersion != 4 || inst.Shard != "shard-a" {
			t.Fatalf("instance scrape: version %d shard %q, want 4/shard-a", inst.TableVersion, inst.Shard)
		}
	}

	// Different shards may run different versions (a rollout mutates one
	// domain partition at a time): still clean.
	b1 := startVersionedInstance(t, 9, "shard-b")
	st = poll(client, []string{a1, a2, b1}, time.Unix(1754000000, 0))
	if len(st.VersionSkew) != 0 {
		t.Fatalf("cross-shard version difference flagged: %v", st.VersionSkew)
	}

	// Skew inside one shard: flagged, rendered, and the one-shot exit is 1.
	a3 := startVersionedInstance(t, 5, "shard-a")
	st = poll(client, []string{a1, a2, a3}, time.Unix(1754000000, 0))
	if len(st.VersionSkew) != 1 || !strings.Contains(st.VersionSkew[0], "shard-a") {
		t.Fatalf("skew = %v, want exactly shard-a", st.VersionSkew)
	}
	var out, errb strings.Builder
	code := run([]string{"-targets", a1 + "," + a2 + "," + a3}, &out, &errb)
	if code != 1 {
		t.Errorf("one-shot exit = %d with version skew, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "TABLE VERSION SKEW") || !strings.Contains(out.String(), "shard-a") {
		t.Errorf("status table does not surface the skew:\n%s", out.String())
	}

	// Unsharded instances are compared as one group.
	u1 := startVersionedInstance(t, 2, "")
	u2 := startVersionedInstance(t, 3, "")
	st = poll(client, []string{u1, u2}, time.Unix(1754000000, 0))
	if len(st.VersionSkew) != 1 || !strings.Contains(st.VersionSkew[0], "(unsharded)") {
		t.Fatalf("unsharded skew = %v, want one (unsharded) entry", st.VersionSkew)
	}
}

// TestFleetMergeMatchesOneRegistry: the histograms of 1–4 instances, merged
// through their expositions, promtext and histMerger, report the count and
// percentiles of one histogram that saw every observation. Each instance
// spreads its observations over two label series. The first case has
// instances listing different buckets (the cumulative counts of a bucket an
// instance leaves out must not drop to zero); the rest are seeded durations
// from 1ns to 200s, so sub-µs values and values past the last finite bucket
// (~67s) both occur.
func TestFleetMergeMatchesOneRegistry(t *testing.T) {
	repeat := func(n int, d time.Duration) []time.Duration {
		ds := make([]time.Duration, n)
		for i := range ds {
			ds[i] = d
		}
		return ds
	}
	cases := [][][][]time.Duration{{ // instance → series → observations
		{append(repeat(99, 700*time.Microsecond), 6*time.Millisecond)},
		{repeat(100, 1500*time.Microsecond)},
	}}
	r := rand.New(rand.NewSource(1))
	for c := 0; c < 40; c++ {
		instances := make([][][]time.Duration, 1+r.Intn(4))
		for i := range instances {
			instances[i] = make([][]time.Duration, 2)
			for j := range instances[i] {
				for k := r.Intn(60); k > 0; k-- {
					d := time.Duration(math.Exp(r.Float64() * math.Log(2e11)))
					instances[i][j] = append(instances[i][j], d)
				}
			}
		}
		cases = append(cases, instances)
	}
	for c, instances := range cases {
		merge := newHistMerger()
		var all obs.Histogram
		for _, series := range instances {
			reg := obs.NewRegistry()
			for j, ds := range series {
				h := reg.Histogram(obs.LabeledName("lat", "series", strconv.Itoa(j)))
				for _, d := range ds {
					h.Observe(d)
					all.Observe(d)
				}
			}
			var buf bytes.Buffer
			if err := obs.WriteOpenMetrics(&buf, reg, nil, false); err != nil {
				t.Fatal(err)
			}
			exp, err := promtext.Parse(&buf)
			if err != nil {
				t.Fatalf("case %d: parse: %v", c, err)
			}
			merge.add("lat_seconds", exp.Family("lat_seconds"))
		}
		got := merge.families["lat_seconds"].merged()
		want := MergedHistogram{
			Count: float64(all.Count()),
			P50:   all.Quantile(0.50).Seconds(),
			P90:   all.Quantile(0.90).Seconds(),
			P99:   all.Quantile(0.99).Seconds(),
		}
		if got.Count != want.Count || got.P50 != want.P50 || got.P90 != want.P90 || got.P99 != want.P99 {
			t.Errorf("case %d (%d instances): merged count/p50/p90/p99 = %v/%v/%v/%v, one registry %v/%v/%v/%v",
				c, len(instances), got.Count, got.P50, got.P90, got.P99, want.Count, want.P50, want.P90, want.P99)
		}
	}
}
