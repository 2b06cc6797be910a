// Command thorbench regenerates every table and figure of the paper's
// evaluation section from the synthetic datasets.
//
// Usage:
//
//	thorbench               # all experiments
//	thorbench -exp 1        # Experiment 1 only (Tables V–VIII, Figs 5–7)
//	thorbench -exp 2        # Experiment 2 only (Tables IX–X, Fig 8)
//	thorbench -exp 3        # Experiment 3 only (Table XI, Figs 9–10)
//
// Observability (see the Observability section of README.md):
//
//	thorbench -metrics-addr :6060        # /debug/vars, /debug/pprof/*, /debug/thor/spans
//	thorbench -exp 1 -metrics-json m.json# write the per-stage metrics snapshot
//	thorbench -trace-out run.trace       # runtime execution trace (go tool trace)
//
// Chaos mode runs both datasets under deterministic fault injection and
// verifies the isolation invariant (healthy documents bit-identical to a
// clean run); non-zero exit if it is violated:
//
//	thorbench -chaos -chaos-seed 42 -chaos-error-rate 0.03 -chaos-panic-rate 0.01
package main
