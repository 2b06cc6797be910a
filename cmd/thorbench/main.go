package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"runtime/trace"

	"thor/internal/chaos"
	"thor/internal/datagen"
	"thor/internal/experiments"
	"thor/internal/obs"
)

// logger carries the structured diagnostics every thorbench mode writes to
// stderr (results themselves go to stdout); configured by -log-format and
// -log-level in main.
var logger *slog.Logger

func main() {
	exp := flag.Int("exp", 0, "experiment to run (1, 2 or 3; 0 = all)")
	csvDir := flag.String("csv", "", "optional directory for CSV series of every table/figure")
	metricsAddr := flag.String("metrics-addr", "", "serve /debug/vars, /debug/pprof/* and /debug/thor/* on this address")
	metricsJSON := flag.String("metrics-json", "", "write the final metrics snapshot (counters + stage histograms) to this file")
	traceOut := flag.String("trace-out", "", "write a runtime execution trace to this file")

	chaosMode := flag.Bool("chaos", false, "run the chaos fault-injection suite instead of the experiments")
	chaosSeed := flag.Uint64("chaos-seed", 42, "fault-injection seed (replays the exact schedule)")
	chaosErrRate := flag.Float64("chaos-error-rate", 0.03, "per-site injected error probability")
	chaosPanicRate := flag.Float64("chaos-panic-rate", 0.01, "per-site injected panic probability")

	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn or error")
	flag.Parse()

	level, err := obs.ParseLogLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "thorbench:", err)
		os.Exit(2)
	}
	if logger, err = obs.NewLogger(os.Stderr, *logFormat, level); err != nil {
		fmt.Fprintln(os.Stderr, "thorbench:", err)
		os.Exit(2)
	}

	if *chaosMode {
		runChaos(*chaosSeed, *chaosErrRate, *chaosPanicRate)
		return
	}

	// The registry and tracer are threaded through every pipeline run the
	// experiments perform; the span capacity covers a full 3-experiment
	// regeneration.
	reg := obs.NewRegistry()
	tr := obs.NewTracer(16384)
	experiments.SetInstruments(reg, tr)

	if *metricsAddr != "" {
		srv, err := obs.Serve(*metricsAddr, reg, tr)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		logger.Info("debug server up", "url", "http://"+srv.Addr+"/debug/vars")
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := trace.Start(f); err != nil {
			fatal(err)
		}
		defer func() {
			trace.Stop()
			f.Close()
		}()
	}

	if *csvDir != "" {
		if err := experiments.WriteCSVSeries(*csvDir,
			experiments.DiseaseComparison(),
			experiments.ResumeComparison(),
			experiments.Annotation(),
		); err != nil {
			fatal(err)
		}
		fmt.Printf("CSV series written to %s\n", *csvDir)
	}

	switch *exp {
	case 0:
		runExp1()
		runExp2()
		runExp3()
	case 1:
		runExp1()
	case 2:
		runExp2()
	case 3:
		runExp3()
	default:
		fmt.Fprintf(os.Stderr, "thorbench: unknown experiment %d\n", *exp)
		os.Exit(2)
	}

	if *metricsJSON != "" {
		f, err := os.Create(*metricsJSON)
		if err != nil {
			fatal(err)
		}
		err = reg.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		logger.Info("metrics snapshot written", "path", *metricsJSON)
	}
}

// runChaos drives both synthetic datasets through the pipeline under fault
// injection and exits non-zero if any quarantined document perturbed the
// results of the healthy ones.
func runChaos(seed uint64, errRate, panicRate float64) {
	if errRate < 0 || errRate > 1 || panicRate < 0 || panicRate > 1 {
		fmt.Fprintln(os.Stderr, "thorbench: chaos rates must be in [0,1]")
		os.Exit(2)
	}
	cfg := chaos.Config{
		Seed:              seed,
		ErrorRate:         errRate,
		TransientFraction: 0.5,
		PanicRate:         panicRate,
		LatencyRate:       0.02,
		TruncateRate:      0.05,
		CorruptRate:       0.05,
	}
	violated := false
	for _, ds := range []*datagen.Dataset{experiments.DiseaseDataset(), experiments.ResumeDataset()} {
		rep := experiments.RunChaos(ds, cfg)
		fmt.Println(rep)
		if !rep.HealthyIdentical {
			violated = true
		}
	}
	if violated {
		fmt.Fprintln(os.Stderr, "thorbench: fault isolation violated; re-run with -chaos-seed", seed, "to replay")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "thorbench:", err)
	os.Exit(1)
}
