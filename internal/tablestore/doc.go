// Package tablestore is the versioned, copy-on-write state store behind
// live tables: serving state that can be mutated while requests are in
// flight, with zero-downtime atomic swaps.
//
// A Store holds one current Snapshot — an immutable (table, version,
// per-concept fingerprints, payload) tuple — and swaps in a successor on
// every successful Mutate. Snapshots are generation-counted: readers
// Acquire the current snapshot before using it and Release it when done, so
// an in-flight request keeps computing against exactly the version that
// admitted it while new requests already see the next one. A superseded
// snapshot stays alive until its last reader drains, at which point the
// store's OnDrain hook fires (the serving layer's drain telemetry).
//
// Mutations are copy-on-write at row granularity (schema.Table.CloneShared
// plus Row.Clone/SetRow): a mutation touching k rows copies k rows and the
// row index, never the table. The per-concept fingerprint diff between the
// old and new snapshot names exactly which concepts' instance sets changed —
// the matcher's fine-tune cache keys its shared seed clusters on those same
// fingerprints, so a swap re-fine-tunes only the mutated concepts and every
// other concept's cache entries stay warm.
//
// Snapshots persist in the compact THORTBL1 binary format (Store.WriteTo /
// ReadFrom): length-prefixed strings in schema order with a trailing CRC-32C,
// loadable in milliseconds where re-deriving the same table from JSON costs
// several times more (see BenchmarkSnapshotLoadBinary/JSON).
package tablestore
