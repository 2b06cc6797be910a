// Package router is the serving tier's front door: an HTTP router that fans
// /v1/fill and /v1/extract over N thord backends and makes backend failure a
// handled condition instead of an outage.
//
// # Topology
//
// A Router is configured with a shard map. Each shard is a set of identical
// replicas (same table, same embedding space); different shards may hold
// different concept-domain partitions of the table. Replica-only deployments
// use a single shard: every request goes to exactly one backend — chosen by
// rendezvous-hashing the request's document names so repeat corpora keep
// hitting the same warm caches — and its response is streamed back verbatim,
// byte-identical to talking to that backend directly. Multi-shard
// deployments fan every request out to one replica of each shard and merge
// the per-domain partial responses deterministically.
//
// # Failure handling
//
// Four mechanisms compose, from fastest to slowest reaction:
//
//   - Hedged reads: when a backend's reply exceeds a hedge threshold derived
//     from the p95 of the router's own per-backend latency histogram (the
//     router.backend.latency series /metrics exposes; a bucket upper bound,
//     at most twice the true p95; deadline-aware, clamped), the same call is
//     issued to the next-preferred replica; the first success wins and the
//     loser's context is cancelled, which the backend's coalescer honors by
//     dropping the request before batch start.
//   - Circuit breakers: consecutive per-backend failures open a breaker
//     (closed → open → half-open with a single probe), removing the backend
//     from selection until a probe succeeds.
//   - Bounded retries: transient failures (connection errors, 503 sheds) are
//     retried with capped jittered backoff via chaos.Retry; 503 responses
//     carry Retry-After hints that take precedence over the computed delay.
//   - Brownout: when every replica of a shard is unavailable, multi-shard
//     responses degrade to partial results with a per-shard `degraded`
//     marker instead of failing the whole request.
//
// Health classification runs in a background prober: each backend's /readyz
// is polled (ok / degraded / down) and its SLO burn rate scraped from
// /metrics, ordering replica preference health-first.
//
// Every router decision is observable: router.* metric families (requests,
// hedges, retries, brownouts, per-backend latency and breaker state) and
// trace propagation — an inbound traceparent becomes the root of a
// cross-process span tree whose per-backend child spans are the traceparents
// the backends see.
package router
