package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"thor/internal/embed"
	"thor/internal/obs"
	"thor/internal/schema"
	"thor/internal/serve"
	"thor/internal/tablestore"
	"thor/internal/text"
)

func main() {
	os.Exit(run())
}

// run is main with an exit code so deferred cleanup executes on every path.
func run() int {
	var (
		tablePath     = flag.String("table", "", "path to the integrated table (.json or .csv)")
		snapshotPath  = flag.String("snapshot", "", "THORTBL1 live-table snapshot: loaded (with its version) when present, rewritten on every POST /v1/table swap and at clean shutdown")
		subject       = flag.String("subject", "", "subject concept (required for CSV tables)")
		knowledgePath = flag.String("knowledge", "", "optional fine-tuning table distinct from the fill target")
		vectors       = flag.String("vectors", "", "optional THORVEC1 embedding file (default: build from the table)")
		addr          = flag.String("addr", ":8080", "listen address")
		tau           = flag.Float64("tau", 0.7, "similarity threshold τ in [0,1]")
		workers       = flag.Int("workers", 0, "pipeline workers per batch (0 = GOMAXPROCS)")
		batchMax      = flag.Int("batch-max", 16, "maximum documents coalesced into one pipeline run")
		batchWindow   = flag.Duration("batch-window", 2*time.Millisecond, "how long a batch waits for more requests after its first")
		queueDepth    = flag.Int("queue-depth", 64, "admission queue depth in requests; beyond it requests are shed with 503")
		maxDocs       = flag.Int("max-docs", 0, "maximum documents per request (0 = batch-max)")
		docTimeout    = flag.Duration("doc-timeout", 0, "default per-document extraction deadline (0 = none)")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight requests before exiting anyway")
		shardID       = flag.String("shard-id", "", "shard name reported on /readyz and X-Thor-Shard (for partitioned tiers behind thor-router)")
		spanCap       = flag.Int("span-capacity", 4096, "span ring-buffer capacity for /debug/thor/spans")
		logFormat     = flag.String("log-format", "text", "structured log format: text or json")
		logLevel      = flag.String("log-level", "info", "log level: debug, info, warn or error")
		traceSlow     = flag.Duration("trace-slow", 250*time.Millisecond, "flight-recorder slow threshold: traces at or above it are always retained")
		traceKeep     = flag.Int("trace-keep", 256, "flight-recorder capacity for slow/errored/shed/quarantined traces")
		sloLatency    = flag.Duration("slo-latency", 500*time.Millisecond, "per-request latency objective driving /readyz degradation (0 = error budget only)")
		sloWindow     = flag.Duration("slo-window", time.Minute, "sliding window the SLO burn rate is evaluated over")
		profKeep      = flag.Int("profile-keep", 32, "profile ring capacity for /debug/profiles (0 disables degraded-triggered profiling)")
		profSteady    = flag.Duration("profile-steady", 10*time.Minute, "steady-state profile cadence while healthy (0 = default, negative disables)")
		profCPU       = flag.Duration("profile-cpu", 250*time.Millisecond, "CPU profile duration per capture burst (negative skips CPU profiles)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"Usage: thord -table table.json -addr :8080 [flags]\n\nFlags:\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(),
			"\nExit codes:\n  0  clean shutdown (drained)\n  1  fatal error\n  2  usage error\n")
	}
	flag.Parse()
	if *tablePath == "" && *snapshotPath == "" {
		usageErr("-table or -snapshot is required")
	}
	if *tau < 0 || *tau > 1 {
		usageErr(fmt.Sprintf("-tau %v is outside [0,1]", *tau))
	}
	if *workers < 0 || *batchMax < 1 || *queueDepth < 1 || *maxDocs < 0 {
		usageErr("-workers/-batch-max/-queue-depth/-max-docs out of range")
	}
	if *batchWindow < 0 || *docTimeout < 0 || *drainTimeout < 0 {
		usageErr("durations must be non-negative")
	}
	if strings.EqualFold(filepath.Ext(*tablePath), ".csv") && *subject == "" {
		usageErr("CSV tables need -subject <concept> to name the subject column")
	}
	if *traceSlow < 0 || *traceKeep < 1 || *sloLatency < 0 || *sloWindow <= 0 {
		usageErr("-trace-slow/-trace-keep/-slo-latency/-slo-window out of range")
	}
	if *profKeep < 0 {
		usageErr("-profile-keep must be non-negative")
	}
	level, err := obs.ParseLogLevel(*logLevel)
	if err != nil {
		usageErr(err.Error())
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat, level)
	if err != nil {
		usageErr(err.Error())
	}

	// A present snapshot wins over -table: it carries the mutation history
	// (the rows POST /v1/table added) plus the version the tier last served,
	// so a restarted daemon resumes exactly where it drained. -table is the
	// seed for the first boot, before any snapshot exists.
	var table *schema.Table
	var tableVersion uint64
	if *snapshotPath != "" {
		f, err := os.Open(*snapshotPath)
		switch {
		case err == nil:
			tableVersion, table, err = tablestore.ReadFrom(f)
			f.Close()
			if err != nil {
				return fatal(fmt.Errorf("snapshot %s: %w", *snapshotPath, err))
			}
			logger.Info("table snapshot loaded",
				"path", *snapshotPath, "version", tableVersion, "rows", len(table.Rows))
		case !os.IsNotExist(err):
			return fatal(err)
		}
	}
	if table == nil {
		if *tablePath == "" {
			return fatal(fmt.Errorf("snapshot %s does not exist and no -table to seed from", *snapshotPath))
		}
		var err error
		if table, err = loadTable(*tablePath, schema.Concept(*subject)); err != nil {
			return fatal(err)
		}
	}
	var knowledge *schema.Table
	if *knowledgePath != "" {
		var err error
		if knowledge, err = loadTable(*knowledgePath, schema.Concept(*subject)); err != nil {
			return fatal(err)
		}
	}
	space := selfSpace(table)
	if *vectors != "" {
		f, err := os.Open(*vectors)
		if err != nil {
			return fatal(err)
		}
		space, err = embed.ReadSpace(f)
		f.Close()
		if err != nil {
			return fatal(err)
		}
	}

	reg := obs.NewRegistry()
	tracer := obs.NewTracer(*spanCap)
	recorder := obs.NewRecorder(obs.RecorderOptions{
		SlowThreshold:   *traceSlow,
		KeepInteresting: *traceKeep,
	})
	// The journal records the node's state transitions (breaker, SLO, table
	// swaps, drains, profiler bursts) as one causally-ordered timeline,
	// served at /debug/events and merged fleet-wide by thorctl -events.
	journal := obs.NewJournal(obs.JournalConfig{
		Node:     *addr,
		Registry: reg,
	})
	slo := obs.NewSLO(obs.SLOConfig{
		Window:  *sloWindow,
		Latency: *sloLatency,
		OnTransition: func(degraded bool, violating []string) {
			from, to := "degraded", "healthy"
			if degraded {
				from, to = "healthy", "degraded"
			}
			journal.Append(obs.JournalEvent{
				Kind:    obs.EventSLO,
				Subject: strings.Join(violating, ","),
				From:    from,
				To:      to,
			})
		},
	})
	reg.PublishExpvar("thor")
	slo.PublishExpvar("thor.slo")

	// Degraded-triggered profiling: a capture burst fires on every
	// healthy->degraded SLO transition (plus a slow steady cadence), tagged
	// with the flight recorder's retained trace IDs so a profile can be
	// correlated with the traces that degraded the objective.
	var profiler *obs.Profiler
	if *profKeep > 0 {
		profiler = obs.NewProfiler(obs.ProfilerConfig{
			Degraded: slo.Degraded,
			TraceIDs: func() []string {
				summaries := recorder.Traces()
				ids := make([]string, 0, len(summaries))
				for _, s := range summaries {
					ids = append(ids, s.TraceID)
				}
				return ids
			},
			SteadyEvery: *profSteady,
			CPUDuration: *profCPU,
			Capacity:    *profKeep,
			OnBurst: func(reason string) {
				journal.Append(obs.JournalEvent{
					Kind: obs.EventProfiler, Subject: reason, To: "captured",
				})
			},
		})
		profCtx, profCancel := context.WithCancel(context.Background())
		defer profCancel()
		go profiler.Run(profCtx)
	}

	// Every accepted mutation rewrites the snapshot (atomically, in the swap
	// hook's goroutine — mutations are rare next to fills), so a crash loses
	// at most the mutation in flight.
	var onSwap func(uint64, *schema.Table)
	if *snapshotPath != "" {
		path := *snapshotPath
		onSwap = func(version uint64, t *schema.Table) {
			if err := persistSnapshot(path, func(w io.Writer) (int64, error) {
				return tablestore.WriteTable(w, version, t)
			}); err != nil {
				logger.Warn("snapshot persist failed", "path", path, "error", err.Error())
				return
			}
			logger.Info("snapshot persisted", "path", path, "version", version)
		}
	}

	engine, err := serve.NewServer(serve.Options{
		Table:             table,
		TableVersion:      tableVersion,
		OnTableSwap:       onSwap,
		Knowledge:         knowledge,
		Space:             space,
		Tau:               *tau,
		Workers:           *workers,
		BatchMax:          *batchMax,
		BatchWindow:       *batchWindow,
		QueueDepth:        *queueDepth,
		MaxDocsPerRequest: *maxDocs,
		DocTimeout:        *docTimeout,
		Metrics:           reg,
		Tracer:            tracer,
		Recorder:          recorder,
		SLO:               slo,
		Profiler:          profiler,
		Journal:           journal,
		Logger:            logger,
		ShardID:           *shardID,
	})
	if err != nil {
		return fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fatal(err)
	}
	httpSrv := &http.Server{Handler: engine}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	logger.Info("serving",
		"addr", ln.Addr().String(),
		"table_version", engine.TableVersion(),
		"rows", table.InstanceCount(),
		"tau", *tau,
		"batch_max", *batchMax,
		"batch_window", batchWindow.String(),
		"queue_depth", *queueDepth,
		"slo_latency", sloLatency.String())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		logger.Info("draining", "signal", sig.String(), "timeout", drainTimeout.String())
	case err := <-errCh:
		return fatal(fmt.Errorf("serve: %w", err))
	}

	// Drain order: flip readiness and shed new work first, let queued and
	// in-flight requests finish, then close the HTTP listener (whose
	// Shutdown waits for active handlers, which need the engine alive).
	//
	// The listener shutdown deliberately does NOT share the engine's drain
	// context: a slow drain can consume that budget entirely, and an
	// already-expired context makes http.Server.Shutdown abort active
	// handlers immediately. The handlers still running at this point are
	// requests admitted between the signal and the listener close — the
	// engine is draining, so they are mid-shed and answer 503 + Retry-After
	// in microseconds. Aborting them tears the connection and hands the
	// client an empty reply; a fresh grace period lets every one of them
	// finish its write.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := engine.Shutdown(ctx)
	lnCtx, lnCancel := context.WithTimeout(context.Background(), listenerGrace)
	defer lnCancel()
	_ = httpSrv.Shutdown(lnCtx)
	if drainErr != nil {
		engine.Close()
		return fatal(fmt.Errorf("drain: %w", drainErr))
	}
	// Belt and braces: the swap hook already persisted every accepted
	// mutation, but a final write at clean shutdown also captures a tier that
	// started from -table and was never mutated.
	if *snapshotPath != "" {
		if err := persistSnapshot(*snapshotPath, engine.WriteTableSnapshot); err != nil {
			logger.Warn("shutdown snapshot persist failed", "path", *snapshotPath, "error", err.Error())
		} else {
			logger.Info("snapshot persisted", "path", *snapshotPath, "version", engine.TableVersion())
		}
	}
	logger.Info("drained cleanly")
	return 0
}

// persistSnapshot atomically replaces path with the bytes write produces: the
// write lands in a temp file in the destination directory, then renames over
// the target, so a crash mid-write never leaves a torn snapshot behind.
func persistSnapshot(path string, write func(io.Writer) (int64, error)) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".thortbl-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// listenerGrace bounds the listener's own shutdown after the engine drain:
// long enough for every in-flight shed response to flush, short enough that
// a wedged connection cannot hold the process open.
const listenerGrace = 5 * time.Second

// usageErr prints the message plus usage and exits 2.
func usageErr(msg string) {
	fmt.Fprintln(os.Stderr, "thord:", msg)
	flag.Usage()
	os.Exit(2)
}

// fatal reports err and returns the fatal exit code.
func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "thord:", err)
	return 1
}

// loadTable reads a JSON or CSV integrated table (CSV needs the subject
// concept).
func loadTable(path string, subject schema.Concept) (*schema.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch strings.ToLower(filepath.Ext(path)) {
	case ".json":
		return schema.ReadJSON(f)
	case ".csv":
		if subject == "" {
			return nil, fmt.Errorf("-subject is required for CSV tables")
		}
		return schema.ReadCSV(f, subject)
	default:
		return nil, fmt.Errorf("unsupported table format %q", filepath.Ext(path))
	}
}

// selfSpace builds the zero-configuration embedding space from the table's
// own instances (the same fallback cmd/thor ships with): column words
// cluster around a per-concept centroid, unknown words fall back to subword
// hashing.
func selfSpace(table *schema.Table) *embed.Space {
	space := embed.NewSpace()
	for _, c := range table.Schema.Concepts {
		centroid := embed.HashVector("cli-centroid:" + string(c))
		for _, v := range table.ColumnValues(c) {
			for _, w := range strings.Fields(text.NormalizePhrase(v)) {
				if space.Contains(w) {
					continue
				}
				space.Add(w, embed.Blend(centroid, embed.SubwordVector(w), 0.6))
			}
		}
	}
	return space
}
