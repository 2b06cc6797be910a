package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"testing"
)

// TestWorkloadsSmoke runs every workload briefly with all output checks on,
// and checks that what it prints is what BENCHMARK.json declares: the
// listed metrics, in their units, under valid names. It asserts nothing
// about how fast anything ran.
func TestWorkloadsSmoke(t *testing.T) {
	cfg, err := loadConfig("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, s := range append(append([]metricSpec(nil), cfg.EndToEnd...), cfg.PerLayer...) {
		if !valid.MatchString(s.Name) {
			t.Errorf("metric name %q is not valid", s.Name)
		}
	}
	for i, w := range cfg.Workloads {
		// Workloads alternate between untraced and traced runs to keep the
		// test short; the run record holds both metric sets either way.
		trace, specs := "0", cfg.EndToEnd
		if i%2 == 1 {
			trace, specs = "1", cfg.PerLayer
		}
		t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
			records := t.TempDir()
			var stdout, stderr bytes.Buffer
			args := []string{"-workload", w.Name, "-seconds", "0.2", "-trace", trace,
				"-config", "../BENCHMARK.json", "-records", records}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line is not the result: %v", err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("result %+v, want correct with no failures", res)
			}
			want := map[string]string{}
			for _, s := range specs {
				want[s.Name] = s.Unit
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("result has %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
			}
			for name, m := range res.Metrics {
				if want[name] != m.Unit {
					t.Errorf("result metric %s in %q, BENCHMARK.json says %q", name, m.Unit, want[name])
				}
			}
			printed := 0
			for _, line := range lines[:len(lines)-1] {
				f := strings.Fields(line)
				if len(f) != 4 || f[0] != w.Name || want[f[1]] != f[3] {
					t.Errorf("printed line %q is not a listed metric", line)
				}
				printed++
			}
			if printed != len(want) {
				t.Errorf("printed %d metrics, want %d", printed, len(want))
			}

			recs, err := loadRecords(records, trace == "1")
			if err != nil || len(recs) != 1 {
				t.Fatalf("run records: %d, %v", len(recs), err)
			}
			for _, s := range append(append([]metricSpec(nil), cfg.EndToEnd...), cfg.PerLayer...) {
				if m, ok := recs[0].Metrics[s.Name]; !ok || m.Unit != s.Unit {
					t.Errorf("run record lacks %s in %s", s.Name, s.Unit)
				}
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	cfg := &config{EndToEnd: []metricSpec{{Name: "docs_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}}}
	set := func(hash string, vals ...float64) []record {
		out := make([]record, len(vals))
		for i, v := range vals {
			out[i] = record{Workload: "repeat", ConfigHash: hash, Metrics: map[string]metric{"docs_per_s": {v, "1/s"}}}
		}
		return out
	}
	base := set("h", 100, 101, 99, 100, 102)
	for _, c := range []struct {
		verdict string
		b       []record
		code    int
	}{
		{"same", set("h", 99, 100, 101, 100, 98), 0},
		{"worse", set("h", 80, 81, 79, 80, 82), 1},
		{"better", set("h", 120, 121, 119, 120, 122), 0},
		{"unresolved", set("h", 60, 140, 100, 70, 130), 1},
		{"config hashes differ", set("other", 100, 100), 2},
	} {
		var stdout, stderr bytes.Buffer
		code := judge(cfg, base, c.b, &stdout, &stderr)
		if code != c.code || !strings.Contains(stdout.String()+stderr.String(), c.verdict) {
			t.Errorf("%s: exit %d, output %q", c.verdict, code, stdout.String()+stderr.String())
		}
	}
}
