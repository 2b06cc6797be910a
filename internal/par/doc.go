// Package par spreads independent loop iterations over every core.
//
// Fine-tuning runs on the caller's goroutine once per threshold of a sweep
// and once per table version. In a sweep it runs before the document workers
// start, so without fan-out the other cores would sit idle. In thord it also
// runs while a live-table swap builds the next version, and there it shares
// the cores with the request workers that keep serving the current one. The
// benchmark's churn workload, which swaps the table every 250 ms under read
// traffic, measured no fill-latency regression from that on a 2-vCPU host.
//
// For is the one fan-out the fine-tune loops share: it starts GOMAXPROCS
// goroutines, hands out iteration indices from an atomic counter and returns
// once every iteration has returned. It has no settings; a caller that wants
// fewer goroutines lowers GOMAXPROCS.
//
// Iterations must be independent and write only to state indexed by their
// own i (or to memos safe for concurrent use), so the result never depends
// on the schedule.
package par
