// Command bench is THOR's end-to-end benchmark. One run executes one
// workload against the real public entry points (thor.New and
// Pipeline.RunContext, serve.NewServer, router.New and POST /v1/table),
// checks the outputs, prints every metric as "workload metric value unit",
// writes a JSON run record, and ends with one JSON result line:
//
//	bash bench/run.sh --workload repeat --seed 7 --seconds 20 --trace 0
//
// With --trace 1 it reports the per-layer metrics instead of the end-to-end
// ones and writes the spans it recorded around each module call. With
// -compare it judges two sets of run records against the bounds in
// BENCHMARK.json. See README.md for the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"thor/internal/datagen"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is BENCHMARK.json: the workloads, the metric names with their units
// and, for end-to-end metrics, the bound by which a change may worsen them.
type config struct {
	RunSeconds int          `json:"run_seconds"`
	Workloads  []workload   `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// host identifies where and from what a run was made.
type host struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// record is the run record written for every run. A run is reproducible
// from its config hash, workload, seed and seconds; -compare refuses to mix
// records whose config hashes differ.
type record struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
	ConfigHash string            `json:"config_hash"`
	Host       host              `json:"host"`
	Start      time.Time         `json:"start"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Failures   []string          `json:"failures,omitempty"`
	Samples    map[string]int    `json:"samples"`
	Metrics    map[string]metric `json:"metrics"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: sweep, fresh, repeat, churn or tier")
		seed    = fs.Int64("seed", datagen.DiseaseSeed, "seed of the generated dataset and of every shuffle")
		seconds = fs.Float64("seconds", 0, "length of the measured phase in seconds (0: run_seconds of the config)")
		trace   = fs.Int("trace", 0, "1 reports the per-layer metrics and writes the recorded spans")
		cfgPath = fs.String("config", "BENCHMARK.json", "benchmark definition: metric names, units and bounds")
		records = fs.String("records", filepath.Join(".bench_build", "runs"), "directory for run records and span dumps")
		compare = fs.Bool("compare", false, "compare two sets of run records, each a directory or glob: -compare A B")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg, err := loadConfig(*cfgPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two record sets: -compare A B")
			return 2
		}
		return compareRuns(cfg, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	body, ok := workloads[*name]
	if !ok || !cfg.hasWorkload(*name) {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds == 0 {
		*seconds = float64(cfg.RunSeconds)
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1 and -seconds positive")
		return 2
	}

	start := time.Now()
	r, err := newRunner(*seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err == nil {
		err = body(r)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *name, err)
		return 1
	}
	all := r.metrics()
	specs := cfg.EndToEnd
	if *trace == 1 {
		specs = cfg.PerLayer
	}
	out := result{
		Correct:   r.res.failed == 0,
		Attempted: r.res.attempted,
		Failed:    r.res.failed,
		Metrics:   make(map[string]metric, len(specs)),
	}
	for _, s := range specs {
		m, ok := all[s.Name]
		if !ok || m.Unit != s.Unit {
			fmt.Fprintf(stderr, "bench: %s: metric %s (%s) not measured in that unit\n", *name, s.Name, s.Unit)
			return 1
		}
		out.Metrics[s.Name] = m
		fmt.Fprintf(stdout, "%s %s %v %s\n", *name, s.Name, m.Value, m.Unit)
	}
	if *trace == 1 {
		for _, k := range sortedKeys(all) {
			if _, listed := out.Metrics[k]; !listed && !cfg.endToEnd(k) {
				fmt.Fprintf(stderr, "%s %s %v %s\n", *name, k, all[k].Value, all[k].Unit)
			}
		}
	}
	for _, f := range r.res.failures {
		fmt.Fprintf(stderr, "bench: %s: check failed: %s\n", *name, f)
	}

	rec := record{
		Workload:   *name,
		Seed:       *seed,
		Seconds:    *seconds,
		Trace:      *trace == 1,
		ConfigHash: cfg.hash(*seconds),
		Host:       hostInfo(),
		Start:      start,
		Correct:    out.Correct,
		Attempted:  out.Attempted,
		Failed:     out.Failed,
		Failures:   r.res.failures,
		Samples:    r.res.samples,
		Metrics:    all,
	}
	if err := writeRecord(*records, rec, r.spans); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

func loadConfig(path string) (*config, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cfg config
	if err := json.Unmarshal(b, &cfg); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &cfg, nil
}

func (c *config) hasWorkload(name string) bool {
	for _, w := range c.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

func (c *config) endToEnd(name string) bool {
	for _, s := range c.EndToEnd {
		if s.Name == name {
			return true
		}
	}
	return false
}

// hash identifies the workload and metric definitions a run was measured
// under, together with the run length.
func (c *config) hash(seconds float64) string {
	b, _ := json.Marshal(struct { // plain data: cannot fail
		Workloads []workload
		EndToEnd  []metricSpec
		PerLayer  []metricSpec
		Seconds   float64
	}{c.Workloads, c.EndToEnd, c.PerLayer, seconds})
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func hostInfo() host {
	h := host{
		Commit:     "unknown",
		Go:         runtime.Version(),
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty {
			h.Commit += "-dirty"
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// writeRecord writes the run record and, for traced runs, the span dump.
func writeRecord(dir string, rec record, spans *spanLog) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%t-%d", rec.Workload, rec.Seed, rec.Trace, rec.Start.UnixNano()))
	if err := writeJSON(base+".json", rec); err != nil {
		return err
	}
	if spans != nil {
		return writeJSON(base+".spans.json", spans.dump())
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
