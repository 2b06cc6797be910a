package router

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"thor/internal/obs"
	"thor/internal/promtext"
)

// healthClass is the prober's three-way classification of a backend.
type healthClass int

const (
	// healthHealthy: /readyz returned 200.
	healthHealthy healthClass = iota
	// healthDegraded: the backend is up but its SLO engine reports burn
	// (/readyz 503 with status "degraded"). Used as fallback only.
	healthDegraded
	// healthDown: /readyz unreachable or draining. Last resort — a down
	// classification is the prober's opinion, possibly stale, so a down
	// backend is still tried when nothing better exists.
	healthDown
)

// String renders the class for topology output.
func (h healthClass) String() string {
	switch h {
	case healthHealthy:
		return "healthy"
	case healthDegraded:
		return "degraded"
	}
	return "down"
}

// backend is the router's per-replica state: identity, breaker, prober
// belief and the latency histogram the hedge threshold derives from.
type backend struct {
	url   string // normalized base URL
	host  string // host:port, the metrics label value
	shard string
	brk   *Breaker

	// mu serializes the health fields.
	mu      sync.Mutex
	health  healthClass
	burn    float64 // worst SLO burn rate scraped from /metrics
	lastErr string

	requests atomic.Int64
	errors   atomic.Int64

	// lat is the router.backend.latency{backend} series, or a private
	// histogram without a registry: /metrics and hedging read the same one.
	lat *obs.Histogram

	// Pre-resolved labeled metrics.
	mReqs  *obs.Counter
	mErrs  *obs.Counter
	mState *obs.Gauge
	mTrans *obs.Counter
	mBurn  *obs.FloatGauge
}

// newBackend builds the state for one replica, registering its labeled
// metric series and wiring breaker transitions into them. notify, when
// non-nil, additionally observes transitions (the router logs them).
func newBackend(url, shard string, bcfg BreakerConfig, reg *obs.Registry, notify func(host string, from, to BreakerState)) *backend {
	host := url
	if i := strings.Index(host, "://"); i >= 0 {
		host = host[i+3:]
	}
	b := &backend{
		url:    url,
		host:   host,
		shard:  shard,
		lat:    reg.Histogram(obs.LabeledName("router.backend.latency", "backend", host)),
		mReqs:  reg.Counter(obs.LabeledName("router.backend.requests", "backend", host)),
		mErrs:  reg.Counter(obs.LabeledName("router.backend.errors", "backend", host)),
		mState: reg.Gauge(obs.LabeledName("router.breaker.state", "backend", host)),
		mTrans: reg.Counter(obs.LabeledName("router.breaker.transitions", "backend", host)),
		mBurn:  reg.FloatGauge(obs.LabeledName("router.backend.burn_rate", "backend", host)),
	}
	if b.lat == nil {
		b.lat = new(obs.Histogram)
	}
	cfg := bcfg
	cfg.OnTransition = func(from, to BreakerState) {
		b.mState.Set(int64(to))
		b.mTrans.Add(1)
		if notify != nil {
			notify(host, from, to)
		}
	}
	b.brk = NewBreaker(cfg)
	return b
}

// observe records one call's outcome into the backend's latency histogram,
// counters and breaker.
func (b *backend) observe(d time.Duration, ok bool) {
	b.requests.Add(1)
	b.mReqs.Add(1)
	b.lat.Observe(d)
	if !ok {
		b.errors.Add(1)
		b.mErrs.Add(1)
	}
	b.brk.Record(ok)
}

// observeCancelled releases the breaker for a call abandoned by our own
// cancellation (hedge loser, client gone): neither a success nor a failure,
// and its latency — cancellation time, not backend time — stays out of the
// histogram.
func (b *backend) observeCancelled() {
	b.requests.Add(1)
	b.mReqs.Add(1)
	b.brk.RecordNeutral()
}

// p95 returns the router-observed p95 latency for the backend (a bucket
// upper bound, at most twice the true p95), 0 until it has samples.
func (b *backend) p95() time.Duration {
	return b.lat.Quantile(0.95)
}

// classify returns the prober's current belief.
func (b *backend) classify() (healthClass, float64, string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.health, b.burn, b.lastErr
}

// setHealth records a prober observation.
func (b *backend) setHealth(h healthClass, burn float64, lastErr string) {
	b.mu.Lock()
	b.health = h
	b.burn = burn
	b.lastErr = lastErr
	b.mu.Unlock()
	b.mBurn.Set(burn)
}

// status snapshots the backend for topology output.
func (b *backend) status() BackendStatus {
	h, burn, _ := b.classify()
	return BackendStatus{
		URL:      b.url,
		Health:   h.String(),
		Breaker:  b.brk.State().String(),
		BurnRate: burn,
		P50MS:    b.lat.Quantile(0.50).Seconds() * 1e3,
		P95MS:    b.p95().Seconds() * 1e3,
		Requests: b.requests.Load(),
		Errors:   b.errors.Load(),
	}
}

// available reports whether the backend is currently selectable: not
// believed down and breaker not open. (State() advances open → half-open
// after cooldown, so availability recovers without traffic.)
func (b *backend) available() bool {
	h, _, _ := b.classify()
	return h != healthDown && b.brk.State() != BreakerOpen
}

// probe polls the backend's /readyz and scrapes its SLO burn rate from
// /metrics, updating the prober belief. Runs on the prober goroutine.
func (b *backend) probe(ctx context.Context, client *http.Client) {
	h, lastErr := b.probeReadyz(ctx, client)
	burn := b.probeBurn(ctx, client)
	b.setHealth(h, burn, lastErr)
}

// probeReadyz classifies the backend from its /readyz endpoint: 200 is
// healthy; 503 with a "degraded" status body is degraded (the backend still
// serves, its SLO engine is just burning budget); anything else — draining,
// connection refused, timeout — is down.
func (b *backend) probeReadyz(ctx context.Context, client *http.Client) (healthClass, string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/readyz", nil)
	if err != nil {
		return healthDown, err.Error()
	}
	resp, err := client.Do(req)
	if err != nil {
		return healthDown, err.Error()
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusOK {
		return healthHealthy, ""
	}
	var body struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body); err == nil && body.Status == "degraded" {
		return healthDegraded, "slo degraded"
	}
	return healthDown, "readyz " + resp.Status
}

// probeBurn scrapes the worst thor_slo_burn_rate sample from the backend's
// /metrics. Returns 0 when the endpoint or family is unavailable — burn rate
// refines ordering, it never gates selection.
func (b *backend) probeBurn(ctx context.Context, client *http.Client) float64 {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/metrics", nil)
	if err != nil {
		return 0
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return 0
	}
	exp, err := promtext.Parse(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return 0
	}
	fam := exp.Family("thor_slo_burn_rate")
	if fam == nil {
		return 0
	}
	worst := 0.0
	for _, s := range fam.Samples {
		if s.Value > worst {
			worst = s.Value
		}
	}
	return worst
}
