package experiments

import (
	"testing"

	"thor/internal/matcher"
	"thor/internal/obs"
	"thor/internal/thor"
)

// TestExperiment1GoldenCounters is the output oracle for Experiment 1's τ
// sweep: the six thresholds of Table V run in order on the Disease A–Z test
// split with runThor's configuration, reporting into one fresh registry and
// sharing one fresh fine-tune cache and parse cache, as a thorbench -exp 1
// sweep does. Every change must leave these counters exactly as they are.
func TestExperiment1GoldenCounters(t *testing.T) {
	ds := DiseaseDataset()
	reg := obs.NewRegistry()
	tune, parse := matcher.NewCache(), thor.NewParseCache()

	wantCandidates := []int{17894, 14036, 10429, 6328, 4425, 3408}
	wantEntities := []int{2727, 2656, 2381, 1966, 1660, 1372}
	for i, tau := range Taus {
		res, err := thor.Run(ds.TestTable(), ds.Space, ds.Test.Docs, thor.Config{
			Tau:        tau,
			Knowledge:  ds.Table,
			Lexicon:    ds.Lexicon,
			Metrics:    reg,
			TuneCache:  tune,
			ParseCache: parse,
		})
		if err != nil {
			t.Fatal(err)
		}
		got, want := [2]int{res.Stats.Candidates, res.Stats.Entities}, [2]int{wantCandidates[i], wantEntities[i]}
		if got != want {
			t.Errorf("τ=%.1f: candidates/entities = %v, want %v", tau, got, want)
		}
	}

	snap := reg.Snapshot()
	wantCounters := map[string]int64{
		"thor.docs":        546,
		"thor.sentences":   16704,
		"thor.phrases":     38838,
		"thor.candidates":  56520,
		"thor.entities":    12762,
		"thor.filled":      9891,
		"thor.quarantined": 0,
		"thor.retries":     0,
		"thor.skipped":     0,
	}
	filled := map[string]int64{
		"Anatomy": 1317, "Cause": 1172, "Complication": 1082, "Composition": 887,
		"Diagnosis": 1121, "Medicine": 1025, "Precaution": 1082, "Riskfactor": 446,
		"Surgery": 734, "Symptom": 1025,
	}
	wantGauges := map[string]float64{
		"thor.sparsity.fill_rate":                                     6.992307692307692,
		`thor.sparsity.quarantine_fraction{table="1f8041905e62ae1b"}`: 0,
	}
	for c, n := range filled {
		label := `{concept="` + c + `"}`
		wantCounters["thor.sparsity.cells_filled"+label] = n
		wantGauges["thor.sparsity.null_density_before"+label] = 1
		wantGauges["thor.sparsity.null_density_after"+label] = 0
	}
	for name, want := range wantCounters {
		if got, ok := snap.Counters[name]; !ok || got != want {
			t.Errorf("%s = %d (registered %t), want %d", name, got, ok, want)
		}
	}
	for name, want := range wantGauges {
		if got, ok := snap.FloatGauges[name]; !ok || got != want {
			t.Errorf("%s = %v (registered %t), want %v", name, got, ok, want)
		}
	}
}
