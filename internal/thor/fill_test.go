package thor

import (
	"testing"

	"thor/internal/obs"
)

// sampleEntities builds an entity map exercising every fill edge case: case
// variants of one value, the subject concept, unknown subjects, empty
// phrases and cross-concept repeats.
func sampleEntities() map[string][]Entity {
	return map[string][]Entity{
		"Acoustic Neuroma": {
			{Subject: "Acoustic Neuroma", Concept: "Complication", Phrase: "Tumor", Score: 0.9},
			{Subject: "Acoustic Neuroma", Concept: "Complication", Phrase: "tumor", Score: 0.8}, // case dup
			{Subject: "Acoustic Neuroma", Concept: "Anatomy", Phrase: "tumor", Score: 0.7},      // other concept
			{Subject: "Acoustic Neuroma", Concept: "Disease", Phrase: "acoustic neuroma", Score: 0.9}, // subject concept
			{Subject: "Acoustic Neuroma", Concept: "Anatomy", Phrase: "", Score: 0.9},           // empty value
			{Subject: "Acoustic Neuroma", Concept: "Anatomy", Phrase: "nervous system", Score: 0.9}, // already present
		},
		"Tuberculosis": {
			{Subject: "Tuberculosis", Concept: "Anatomy", Phrase: "lungs", Score: 0.6},
		},
		"No Such Row": {
			{Subject: "No Such Row", Concept: "Anatomy", Phrase: "spine", Score: 0.6},
		},
	}
}

// TestAssignmentsMatchFill pins the read-only fill contract: Assignments /
// AssignmentsExplained over an untouched table must return exactly what Fill
// / FillExplained return while mutating a clone — and must not change the
// table.
func TestAssignmentsMatchFill(t *testing.T) {
	table := fig1Table()
	entities := sampleEntities()
	before := table.Fingerprint()
	ro := Assignments(table, entities)
	roX := AssignmentsExplained(table, entities, 0.6)
	if table.Fingerprint() != before {
		t.Fatal("Assignments mutated the table")
	}
	clone := table.Clone()
	mut := Fill(clone, entities)
	if len(ro) != len(mut) {
		t.Fatalf("read-only %d assignments, Fill %d\nro: %+v\nfill: %+v", len(ro), len(mut), ro, mut)
	}
	for i := range ro {
		if ro[i] != mut[i] {
			t.Fatalf("assignment %d differs: read-only %+v, Fill %+v", i, ro[i], mut[i])
		}
	}
	cloneX := table.Clone()
	mutX := FillExplained(cloneX, entities, 0.6)
	if len(roX) != len(mutX) {
		t.Fatalf("explained: read-only %d assignments, FillExplained %d", len(roX), len(mutX))
	}
	for i := range roX {
		a, b := roX[i], mutX[i]
		if a.Subject != b.Subject || a.Concept != b.Concept || a.Value != b.Value {
			t.Fatalf("explained assignment %d differs: %+v vs %+v", i, a, b)
		}
		if a.Provenance == nil || b.Provenance == nil || *a.Provenance != *b.Provenance {
			t.Fatalf("explained assignment %d provenance differs: %+v vs %+v", i, a.Provenance, b.Provenance)
		}
	}
	// Spot-check the semantics themselves, not just the agreement.
	want := []Assignment{
		{Subject: "Acoustic Neuroma", Concept: "Complication", Value: "Tumor"},
		{Subject: "Acoustic Neuroma", Concept: "Anatomy", Value: "tumor"},
		{Subject: "Tuberculosis", Concept: "Anatomy", Value: "lungs"},
	}
	if len(ro) != len(want) {
		t.Fatalf("assignments = %+v, want %+v", ro, want)
	}
	for i := range want {
		if ro[i] != want[i] {
			t.Fatalf("assignment %d = %+v, want %+v", i, ro[i], want[i])
		}
	}
}

// TestSkipFillMatchesFullRun checks the SkipFill contract: the run stops
// after the entity merge (no table, no assignments, Filled 0), its entities
// are identical to a filling run's, the read-only Assignments over them
// reproduce the filling run's assignment sequence, and the sparsity gauges
// (derived without a filled table) match the filling run's exactly.
func TestSkipFillMatchesFullRun(t *testing.T) {
	table, space, docs := fig1Table(), fig1Space(), fig1Docs()
	fullReg, skipReg := obs.NewRegistry(), obs.NewRegistry()
	full, err := Run(table, space, docs, Config{Tau: 0.6, Metrics: fullReg})
	if err != nil {
		t.Fatal(err)
	}
	skip, err := Run(table, space, docs, Config{Tau: 0.6, SkipFill: true, Metrics: skipReg})
	if err != nil {
		t.Fatal(err)
	}
	if skip.Table != nil || skip.Assignments != nil || skip.Stats.Filled != 0 {
		t.Fatalf("SkipFill run still filled: table=%v assignments=%v filled=%d",
			skip.Table, skip.Assignments, skip.Stats.Filled)
	}
	a, b := full.AllEntities(), skip.AllEntities()
	if len(a) != len(b) {
		t.Fatalf("entities differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entity %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	ro := Assignments(table, skip.Entities)
	mut := Fill(table.Clone(), full.Entities)
	if len(ro) != len(mut) {
		t.Fatalf("assignments differ: %d vs %d", len(ro), len(mut))
	}
	for i := range ro {
		if ro[i] != mut[i] {
			t.Fatalf("assignment %d differs: %+v vs %+v", i, ro[i], mut[i])
		}
	}
	// The derived sparsity densities must equal the clone-based ones.
	for _, c := range table.Schema.NonSubject() {
		for _, name := range []string{"thor.sparsity.null_density_before", "thor.sparsity.null_density_after"} {
			n := obs.LabeledName(name, "concept", string(c))
			if got, want := skipReg.FloatGauge(n).Value(), fullReg.FloatGauge(n).Value(); got != want {
				t.Errorf("%s: SkipFill %v, full run %v", n, got, want)
			}
		}
	}
	if got, want := skipReg.FloatGauge("thor.sparsity.fill_rate").Value(),
		fullReg.FloatGauge("thor.sparsity.fill_rate").Value(); got != want {
		t.Errorf("fill_rate: SkipFill %v, full run %v", got, want)
	}
}
