// Command thorctl aggregates a fleet of thord instances into one status
// view: it polls each instance's /metrics and /readyz, merges histograms by
// summing per-bucket counts (so fleet quantiles equal those of one histogram
// that saw every observation), and renders a status table — the observational substrate a sharded serving
// tier's router will sit on.
//
// Usage:
//
//	thorctl -targets 127.0.0.1:7071,127.0.0.1:7072 [-watch 5s] [-json] [-timeout 2s]
//	thorctl -router 127.0.0.1:8090 [flags]
//
// One-shot by default; -watch re-polls at the given interval until
// interrupted. -json emits the FleetStatus as JSON (one document per poll)
// for CI and scripting. -router additionally polls a thor-router's
// /v1/topology and renders the per-backend health/breaker table above the
// fleet view; when -targets is omitted the fleet targets are derived from
// the topology. The exit status is 0 when every instance is ready and
// healthy, 1 when any instance is degraded, draining or unreachable, or when
// replicas of one shard disagree on the live-table version (thor_table_version
// skew: a POST /v1/table mutation reached some replicas and not others) — or,
// with -router, when any backend's circuit breaker is open or the router is
// unreachable (one-shot mode only).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; exit status as documented above.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("thorctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	targetsFlag := fs.String("targets", "", "comma-separated thord instances (host:port); required unless -router is given")
	routerFlag := fs.String("router", "", "thor-router endpoint (host:port); renders per-backend health/breaker state from /v1/topology")
	watch := fs.Duration("watch", 0, "re-poll at this interval (0 = one shot)")
	asJSON := fs.Bool("json", false, "emit JSON instead of the status table")
	timeout := fs.Duration("timeout", 2*time.Second, "per-request HTTP timeout")
	traceID := fs.String("trace", "", "stitch this trace ID: fetch span fragments from every node (router + topology backends) and render one causal tree")
	events := fs.Bool("events", false, "merge every node's /debug/events journal into one fleet timeline")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceID != "" && *events {
		fmt.Fprintln(stderr, "thorctl: -trace and -events are mutually exclusive")
		return 2
	}
	var targets []string
	for _, t := range strings.Split(*targetsFlag, ",") {
		if t = strings.TrimSpace(t); t != "" {
			targets = append(targets, t)
		}
	}
	routerTarget := strings.TrimSpace(*routerFlag)
	if len(targets) == 0 && routerTarget == "" {
		fmt.Fprintln(stderr, "thorctl: -targets or -router is required")
		fs.Usage()
		return 2
	}
	client := &http.Client{Timeout: *timeout}

	if *traceID != "" || *events {
		nodes := fleetNodes(client, targets, routerTarget, stderr)
		if *traceID != "" {
			return runTrace(client, stdout, stderr, *traceID, nodes, *asJSON)
		}
		return runEvents(client, stdout, nodes, *asJSON)
	}

	for {
		var rst *RouterStatus
		if routerTarget != "" {
			rst = pollRouter(client, routerTarget)
		}
		pollTargets := targets
		if len(pollTargets) == 0 && rst != nil {
			// Derive the fleet from the router's live topology.
			pollTargets = rst.backendTargets()
		}
		st := poll(client, pollTargets, time.Now())
		if *asJSON {
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			if rst != nil {
				_ = enc.Encode(struct {
					Router *RouterStatus `json:"router"`
					Fleet  *FleetStatus  `json:"fleet"`
				}{rst, st})
			} else {
				_ = enc.Encode(st)
			}
		} else {
			if rst != nil {
				renderRouter(stdout, rst)
				fmt.Fprintln(stdout)
			}
			render(stdout, st)
		}
		if *watch <= 0 {
			if len(st.Degraded) > 0 || len(st.VersionSkew) > 0 {
				return 1
			}
			if rst != nil && (rst.Err != "" || len(rst.OpenBreakers) > 0) {
				return 1
			}
			return 0
		}
		time.Sleep(*watch)
	}
}

// fleetNodes assembles the -trace/-events fan-out set: the explicit targets,
// plus — when a router is given — the router itself and every backend in its
// live /v1/topology, deduplicated in first-appearance order.
func fleetNodes(client *http.Client, targets []string, routerTarget string, stderr io.Writer) []string {
	var nodes []string
	seen := make(map[string]bool)
	add := func(t string) {
		if t != "" && !seen[t] {
			seen[t] = true
			nodes = append(nodes, t)
		}
	}
	if routerTarget != "" {
		add(routerTarget)
		rst := pollRouter(client, routerTarget)
		if rst.Err != "" {
			fmt.Fprintf(stderr, "thorctl: router %s: %s (continuing with explicit targets)\n", routerTarget, rst.Err)
		}
		for _, t := range rst.backendTargets() {
			add(t)
		}
	}
	for _, t := range targets {
		add(t)
	}
	return nodes
}

// render prints the fleet table: one row per instance, then the merged
// histogram quantiles.
func render(w io.Writer, st *FleetStatus) {
	fmt.Fprintf(w, "fleet status @ %s — %d instance(s), %d degraded\n",
		st.PolledAt.Format(time.RFC3339), len(st.Instances), len(st.Degraded))
	fmt.Fprintf(w, "%-24s %-10s %-9s %7s %11s %12s %12s\n",
		"TARGET", "READY", "DEGRADED", "TABLE", "GOROUTINES", "HEAP", "FILL REQS")
	for _, inst := range st.Instances {
		if inst.Err != "" {
			fmt.Fprintf(w, "%-24s %-10s %s\n", inst.Target, "unreachable", inst.Err)
			continue
		}
		ready := inst.ReadyDetail
		if ready == "" {
			if inst.Ready {
				ready = "ok"
			} else {
				ready = "not-ready"
			}
		}
		version := "-"
		if inst.TableVersion > 0 {
			version = fmt.Sprintf("v%d", inst.TableVersion)
		}
		fmt.Fprintf(w, "%-24s %-10s %-9v %7s %11d %12s %12.0f\n",
			inst.Target, ready, inst.Degraded, version, inst.Goroutines,
			humanBytes(inst.HeapBytes), inst.Counters["serve_fill_requests"])
	}
	if len(st.VersionSkew) > 0 {
		fmt.Fprintf(w, "TABLE VERSION SKEW: %s\n", strings.Join(st.VersionSkew, "; "))
	}
	names := make([]string, 0, len(st.Histograms))
	for n := range st.Histograms {
		if st.Histograms[n].Count > 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) > 0 {
		fmt.Fprintf(w, "\nmerged histograms (fleet-wide, %d instance(s)):\n", len(st.Instances))
		fmt.Fprintf(w, "%-40s %10s %10s %10s %10s\n", "FAMILY", "COUNT", "P50", "P90", "P99")
		for _, n := range names {
			h := st.Histograms[n]
			fmt.Fprintf(w, "%-40s %10.0f %10s %10s %10s\n",
				n, h.Count, humanSeconds(h.P50), humanSeconds(h.P90), humanSeconds(h.P99))
		}
	}
}

// humanBytes renders a byte count compactly.
func humanBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}

// humanSeconds renders a seconds value compactly.
func humanSeconds(s float64) string {
	d := time.Duration(s * float64(time.Second))
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	}
	return fmt.Sprintf("%dns", d.Nanoseconds())
}
