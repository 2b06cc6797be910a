package router

import (
	"encoding/json"
	"net/http"

	"thor/internal/serve"
)

// DegradedShard marks one shard whose replicas were all unavailable when a
// request was served: the response is missing that shard's concepts
// (brownout). Clients that care about completeness check the `degraded`
// field; clients that prefer availability use the partial result as-is.
type DegradedShard struct {
	// Shard is the failed shard's ID.
	Shard string `json:"shard"`
	// Concepts lists the concept domains the response is missing (the
	// shard map's Concepts for the shard, when specified).
	Concepts []string `json:"concepts,omitempty"`
	// Reason is the last failure the router saw from the shard's replicas.
	Reason string `json:"reason"`
}

// Response is the router's fill/extract response: the backend response
// shape, plus the brownout marker. Single-shard responses are streamed
// through verbatim (no Degraded field, byte-identical to the backend);
// multi-shard responses are merged and carry Degraded when any shard was
// down.
type Response struct {
	serve.Response
	// Degraded lists the shards whose results are missing, empty/absent
	// when the response is complete.
	Degraded []DegradedShard `json:"degraded,omitempty"`
}

// Router-specific error code: every shard of the tier was unavailable, so
// not even a partial response could be served (HTTP 503 with Retry-After).
// Single-shard deployments also use it when all replicas are down. Other
// error codes pass through from serve (CodeInvalidRequest etc).
const CodeUnavailable = "unavailable"

// BackendStatus is one backend's row in the topology view: what the router
// currently believes about it.
type BackendStatus struct {
	// URL is the backend's normalized base URL.
	URL string `json:"url"`
	// Health is the prober's classification: "healthy", "degraded" (up but
	// burning SLO budget) or "down".
	Health string `json:"health"`
	// Breaker is the circuit breaker state: "closed", "half-open" or
	// "open".
	Breaker string `json:"breaker"`
	// BurnRate is the worst SLO burn rate scraped from the backend's
	// /metrics, 0 when unknown.
	BurnRate float64 `json:"burn_rate,omitempty"`
	// P50MS is the router-observed median latency for this backend, in
	// milliseconds: a latency-histogram bucket upper bound (0 until the
	// first sample).
	P50MS float64 `json:"p50_ms"`
	// P95MS is the router-observed p95 latency for this backend, in
	// milliseconds: a latency-histogram bucket upper bound (0 until the
	// first sample).
	P95MS float64 `json:"p95_ms"`
	// Requests counts the router's calls to this backend.
	Requests int64 `json:"requests"`
	// Errors counts the calls that failed (after retries).
	Errors int64 `json:"errors"`
}

// ShardTopology is one shard's row in the topology view.
type ShardTopology struct {
	// ID is the shard's ID.
	ID string `json:"id"`
	// Concepts is the shard's declared concept domains.
	Concepts []string `json:"concepts,omitempty"`
	// Available reports whether at least one replica is currently
	// selectable (not down, breaker not open).
	Available bool `json:"available"`
	// Backends are the shard's replicas.
	Backends []BackendStatus `json:"backends"`
}

// Topology is the GET /v1/topology response: the router's live view of the
// tier, consumed by thorctl's fleet display.
type Topology struct {
	// Shards are the tier's shards in shard-map order.
	Shards []ShardTopology `json:"shards"`
}

// writeJSON writes v as a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes the serve error envelope (routers and backends share
// one error shape, so clients need a single decoder).
func writeError(w http.ResponseWriter, status int, code, message, traceID string) {
	writeJSON(w, status, serve.ErrorBody{Error: serve.ErrorInfo{Code: code, Message: message}, TraceID: traceID})
}
