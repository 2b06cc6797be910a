package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// compareRuns judges set B of run records against set A: for every workload
// and end-to-end metric it prints each set's median and quartiles and a
// verdict under the metric's bound. The verdict is "unresolved" when either
// set's spread (interquartile range over median) exceeds the bound, "worse"
// when B's median is worse than A's by more than the bound, "better" when B
// improves on A by more than A's spread and wins at least nine tenths of
// all A×B pairs, and "same" otherwise. It exits 1 on any worse or
// unresolved verdict.
func compareRuns(cfg *config, a, b string, stdout, stderr io.Writer) int {
	setA, err := loadRecords(a, false)
	if err == nil {
		var setB []record
		if setB, err = loadRecords(b, false); err == nil {
			return judge(cfg, setA, setB, stdout, stderr)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

// loadRecords reads the run records, traced or untraced, named by a
// directory or glob.
func loadRecords(pattern string, traced bool) ([]record, error) {
	if fi, err := os.Stat(pattern); err == nil && fi.IsDir() {
		pattern = filepath.Join(pattern, "*.json")
	}
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	var out []record
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(b, &rec); err != nil || rec.Workload == "" {
			continue // span dumps and other files
		}
		if rec.Trace == traced {
			out = append(out, rec)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no run records", pattern)
	}
	return out, nil
}

func judge(cfg *config, setA, setB []record, stdout, stderr io.Writer) int {
	hash := setA[0].ConfigHash
	for _, rec := range append(append([]record(nil), setA...), setB...) {
		if rec.ConfigHash != hash {
			fmt.Fprintf(stderr, "bench: config hashes differ (%s vs %s): the runs measured different things\n", hash, rec.ConfigHash)
			return 2
		}
	}
	byWorkload := func(set []record) map[string][]record {
		m := map[string][]record{}
		for _, rec := range set {
			m[rec.Workload] = append(m[rec.Workload], rec)
		}
		return m
	}
	wa, wb := byWorkload(setA), byWorkload(setB)
	names := make([]string, 0, len(wa))
	for w := range wa {
		if _, ok := wb[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(stderr, "bench: the two sets share no workload")
		return 2
	}
	code := 0
	fmt.Fprintf(stdout, "%-7s %-14s %5s %28s %28s %8s  %s\n", "load", "metric", "runs", "A median [q1 q3]", "B median [q1 q3]", "change", "verdict")
	for _, w := range names {
		for _, s := range cfg.EndToEnd {
			a, b := values(wa[w], s.Name), values(wb[w], s.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			a1, am, a3 := quartiles(a)
			b1, bm, b3 := quartiles(b)
			change := ratio(bm-am, am)
			worse := change
			if s.Better == "higher" {
				worse = -change
			}
			verdict := "same"
			switch {
			case ratio(a3-a1, am) > s.Bound || ratio(b3-b1, bm) > s.Bound:
				verdict = "unresolved"
			case worse > s.Bound:
				verdict = "worse"
			case -worse > ratio(a3-a1, am) && wins(a, b, s.Better) >= 0.9:
				verdict = "better"
			}
			if verdict == "worse" || verdict == "unresolved" {
				code = 1
			}
			fmt.Fprintf(stdout, "%-7s %-14s %2d/%-2d %10.4g [%.4g %.4g] %10.4g [%.4g %.4g] %+7.1f%%  %s (bound %.0f%%)\n",
				w, s.Name, len(a), len(b), am, a1, a3, bm, b1, b3, 100*change, verdict, 100*s.Bound)
		}
	}
	return code
}

func values(recs []record, name string) []float64 {
	var out []float64
	for _, rec := range recs {
		if m, ok := rec.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// wins is the share of all (a, b) pairs in which b is better, ties
// counting for neither side.
func wins(a, b []float64, better string) float64 {
	n := 0
	for _, x := range a {
		for _, y := range b {
			if better == "higher" && y > x || better != "higher" && y < x {
				n++
			}
		}
	}
	return ratio(float64(n), float64(len(a)*len(b)))
}
