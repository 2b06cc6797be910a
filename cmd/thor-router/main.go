package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"thor/internal/chaos"
	"thor/internal/obs"
	"thor/internal/router"
)

func main() {
	os.Exit(run())
}

// run is main with an exit code so deferred cleanup executes on every path.
func run() int {
	var (
		backends       = flag.String("backends", "", "comma-separated thord backends forming one replicated shard (e.g. host1:8080,host2:8080)")
		shardMapPath   = flag.String("shard-map", "", "JSON shard map partitioning concepts across shards (mutually exclusive with -backends)")
		addr           = flag.String("addr", ":8090", "listen address")
		hedgeFactor    = flag.Float64("hedge-factor", 1.5, "hedge threshold as a multiple of the primary's observed p95")
		hedgeMin       = flag.Duration("hedge-min", 20*time.Millisecond, "hedge threshold floor (also used before a backend's latency histogram has samples)")
		hedgeMax       = flag.Duration("hedge-max", 2*time.Second, "hedge threshold ceiling")
		retryAttempts  = flag.Int("retry-attempts", 3, "attempts per shard send for transient failures")
		retryBase      = flag.Duration("retry-base", 10*time.Millisecond, "base backoff between retries (exponential, jittered)")
		retryCap       = flag.Duration("retry-cap", 250*time.Millisecond, "backoff ceiling (backend Retry-After hints are honored up to 30s)")
		brkThreshold   = flag.Int("breaker-threshold", 5, "consecutive failures that open a backend's circuit breaker")
		brkCooldown    = flag.Duration("breaker-cooldown", 5*time.Second, "how long an open breaker waits before admitting a probe")
		healthInterval = flag.Duration("health-interval", 500*time.Millisecond, "background health-prober period")
		maxBody        = flag.Int64("max-body", 8<<20, "maximum request body bytes")
		drainTimeout   = flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight requests before exiting anyway")
		spanCap        = flag.Int("span-capacity", 4096, "span ring-buffer capacity for /debug/thor/spans")
		traceSlow      = flag.Duration("trace-slow", 250*time.Millisecond, "flight-recorder slow threshold: traces at or above it are always retained")
		traceKeep      = flag.Int("trace-keep", 256, "flight-recorder capacity for slow/errored/shed/quarantined traces")
		logFormat      = flag.String("log-format", "text", "structured log format: text or json")
		logLevel       = flag.String("log-level", "info", "log level: debug, info, warn or error")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"Usage: thor-router -backends host1:8080,host2:8080 [flags]\n"+
				"       thor-router -shard-map map.json [flags]\n\nFlags:\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(),
			"\nExit codes:\n  0  clean shutdown (drained)\n  1  fatal error\n  2  usage error\n")
	}
	flag.Parse()
	if (*backends == "") == (*shardMapPath == "") {
		usageErr("exactly one of -backends or -shard-map is required")
	}
	if *hedgeFactor <= 0 || *hedgeMin < 0 || *hedgeMax < 0 {
		usageErr("-hedge-factor/-hedge-min/-hedge-max out of range")
	}
	if *retryAttempts < 1 || *retryBase < 0 || *retryCap < 0 {
		usageErr("-retry-attempts/-retry-base/-retry-cap out of range")
	}
	if *brkThreshold < 1 || *brkCooldown <= 0 {
		usageErr("-breaker-threshold/-breaker-cooldown out of range")
	}
	if *healthInterval <= 0 || *maxBody < 1 || *drainTimeout < 0 || *spanCap < 1 {
		usageErr("-health-interval/-max-body/-drain-timeout/-span-capacity out of range")
	}
	if *traceSlow < 0 || *traceKeep < 1 {
		usageErr("-trace-slow/-trace-keep out of range")
	}
	level, err := obs.ParseLogLevel(*logLevel)
	if err != nil {
		usageErr(err.Error())
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat, level)
	if err != nil {
		usageErr(err.Error())
	}

	var shards router.ShardMap
	if *backends != "" {
		var list []string
		for _, b := range strings.Split(*backends, ",") {
			if b = strings.TrimSpace(b); b != "" {
				list = append(list, b)
			}
		}
		shards = router.SingleShard(list)
	} else {
		raw, err := os.ReadFile(*shardMapPath)
		if err != nil {
			return fatal(err)
		}
		if shards, err = router.ParseShardMap(raw); err != nil {
			return fatal(fmt.Errorf("%s: %w", *shardMapPath, err))
		}
	}

	reg := obs.NewRegistry()
	tracer := obs.NewTracer(*spanCap)
	// The flight recorder retains whole router traces — including per-backend
	// child spans with hedge/retry attribution — so thorctl -trace can fetch
	// the router's fragment of a request and stitch it against the backends'.
	recorder := obs.NewRecorder(obs.RecorderOptions{
		SlowThreshold:   *traceSlow,
		KeepInteresting: *traceKeep,
	})
	tracer.SetRecorder(recorder)
	journal := obs.NewJournal(obs.JournalConfig{
		Node:     *addr,
		Registry: reg,
	})
	reg.PublishExpvar("router")

	rt, err := router.New(router.Options{
		Shards:         shards,
		Metrics:        reg,
		Tracer:         tracer,
		Journal:        journal,
		Logger:         logger,
		HedgeFactor:    *hedgeFactor,
		HedgeMin:       *hedgeMin,
		HedgeMax:       *hedgeMax,
		Retry:          chaos.Backoff{Attempts: *retryAttempts, Base: *retryBase, Cap: *retryCap},
		Breaker:        router.BreakerConfig{Threshold: *brkThreshold, Cooldown: *brkCooldown},
		HealthInterval: *healthInterval,
		MaxBodyBytes:   *maxBody,
	})
	if err != nil {
		return fatal(err)
	}
	defer rt.Close()

	// The outer mux layers the observability endpoints over the router's
	// own (/v1/*, /healthz, /readyz, /v1/topology).
	mux := http.NewServeMux()
	debug := obs.DebugHandler(obs.DebugOptions{
		Registry: reg,
		Tracer:   tracer,
		Recorder: recorder,
		Journal:  journal,
	})
	mux.Handle("/debug/", debug)
	mux.Handle("/metrics", debug)
	mux.Handle("/", rt.Handler())

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fatal(err)
	}
	httpSrv := &http.Server{Handler: mux}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	nBackends := 0
	for _, sh := range shards.Shards {
		nBackends += len(sh.Backends)
	}
	logger.Info("routing",
		"addr", ln.Addr().String(),
		"shards", len(shards.Shards),
		"backends", nBackends,
		"hedge_min", hedgeMin.String(),
		"breaker_threshold", *brkThreshold)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		logger.Info("draining", "signal", sig.String(), "timeout", drainTimeout.String())
	case err := <-errCh:
		return fatal(fmt.Errorf("serve: %w", err))
	}

	// Router requests are short proxied calls: closing the listener with the
	// drain budget lets every in-flight fan-out finish; the prober stops
	// after the last request so /v1/topology stays truthful to the end.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fatal(fmt.Errorf("drain: %w", err))
	}
	logger.Info("drained cleanly")
	return 0
}

// usageErr prints the message plus usage and exits 2.
func usageErr(msg string) {
	fmt.Fprintln(os.Stderr, "thor-router:", msg)
	flag.Usage()
	os.Exit(2)
}

// fatal reports err and returns the fatal exit code.
func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "thor-router:", err)
	return 1
}
