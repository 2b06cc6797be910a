package thor

import (
	"fmt"
	"strings"

	"thor/internal/obs"
	"thor/internal/schema"
)

// sparsityInstruments carries the thor.sparsity.* instruments — the paper's
// headline effect (how much null density THOR removes, per concept) as a
// scrapeable signal. Resolved once per pipeline at construction; every
// field is nil (a valid no-op instrument) when the pipeline runs without a
// registry, so the no-metrics hot path stays zero-cost.
type sparsityInstruments struct {
	concepts []schema.Concept
	// nullBefore/nullAfter are per-concept null-density gauges over the
	// most recent run's input and output tables, in [0,1].
	nullBefore []*obs.FloatGauge
	nullAfter  []*obs.FloatGauge
	// filled counts cells filled per concept, cumulatively across runs.
	filled []*obs.Counter
	// score is the per-concept distribution of merged assignment scores.
	score []*obs.Distribution
	// fillRate is filled cells / previously-null cells of the latest run,
	// across all concepts.
	fillRate *obs.FloatGauge
	// quarantineFrac is the latest run's quarantined-document fraction,
	// labeled with the target table's fingerprint so multi-table processes
	// (or re-pointed shards) keep their series distinct.
	quarantineFrac *obs.FloatGauge
}

// newSparsityInstruments resolves the per-concept sparsity series for the
// pipeline's target table. With a nil registry every instrument is nil and
// recording no-ops.
func newSparsityInstruments(reg *obs.Registry, table *schema.Table) sparsityInstruments {
	var si sparsityInstruments
	if reg == nil {
		return si
	}
	si.concepts = table.Schema.NonSubject()
	si.nullBefore = make([]*obs.FloatGauge, len(si.concepts))
	si.nullAfter = make([]*obs.FloatGauge, len(si.concepts))
	si.filled = make([]*obs.Counter, len(si.concepts))
	si.score = make([]*obs.Distribution, len(si.concepts))
	for i, c := range si.concepts {
		label := []string{"concept", string(c)}
		si.nullBefore[i] = reg.FloatGauge(obs.LabeledName("thor.sparsity.null_density_before", label...))
		si.nullAfter[i] = reg.FloatGauge(obs.LabeledName("thor.sparsity.null_density_after", label...))
		si.filled[i] = reg.Counter(obs.LabeledName("thor.sparsity.cells_filled", label...))
		si.score[i] = reg.Distribution(obs.LabeledName("thor.sparsity.assignment_score", label...))
	}
	si.fillRate = reg.FloatGauge("thor.sparsity.fill_rate")
	si.quarantineFrac = reg.FloatGauge(obs.LabeledName("thor.sparsity.quarantine_fraction",
		"table", fmt.Sprintf("%016x", table.Fingerprint())))
	return si
}

// conceptIndex maps a concept to its slot (-1 when the concept is not part
// of the pipeline's schema, e.g. the subject concept).
func (si *sparsityInstruments) conceptIndex(c schema.Concept) int {
	for i, k := range si.concepts {
		if k == c {
			return i
		}
	}
	return -1
}

// observeScore records one merged entity's combined assignment score under
// its concept. No-op without a registry.
func (si *sparsityInstruments) observeScore(e *Entity) {
	if si.concepts == nil {
		return
	}
	if i := si.conceptIndex(e.Concept); i >= 0 {
		si.score[i].Observe(e.Score)
	}
}

// conceptDensity computes the per-concept null density of a table, indexed
// like concepts: nulls / rows per concept column.
func conceptDensity(t *schema.Table, concepts []schema.Concept) []float64 {
	out := make([]float64, len(concepts))
	if len(t.Rows) == 0 {
		return out
	}
	for i, c := range concepts {
		nulls := 0
		for _, r := range t.Rows {
			if r.Missing(c) {
				nulls++
			}
		}
		out[i] = float64(nulls) / float64(len(t.Rows))
	}
	return out
}

// derivedDensity computes the after-fill per-concept null densities a
// SkipFill run would have produced, without materializing the filled table:
// each distinct (subject, concept) pair among the assignments whose cell was
// null before turns exactly one null cell non-null (assignments are the
// cells a fill pass adds, so the first assignment to a null cell fills it).
func derivedDensity(before *schema.Table, concepts []schema.Concept, db []float64, assignments []Assignment) []float64 {
	da := make([]float64, len(db))
	if len(before.Rows) == 0 {
		return da
	}
	nulls := make([]int, len(concepts))
	for i, c := range concepts {
		for _, r := range before.Rows {
			if r.Missing(c) {
				nulls[i]++
			}
		}
	}
	type cell struct {
		subject string
		concept schema.Concept
	}
	filledCells := make(map[cell]bool)
	for _, a := range assignments {
		key := cell{subject: strings.ToLower(a.Subject), concept: a.Concept}
		if filledCells[key] {
			continue
		}
		filledCells[key] = true
		row := before.Row(a.Subject)
		if row == nil || !row.Missing(a.Concept) {
			continue
		}
		for i, c := range concepts {
			if c == a.Concept {
				nulls[i]--
				break
			}
		}
	}
	for i := range concepts {
		da[i] = float64(nulls[i]) / float64(len(before.Rows))
	}
	return da
}

// recordRun publishes the run's sparsity effect: per-concept null density
// of the input table versus the enriched output, per-concept filled-cell
// counts (from the run's actual assignments), the overall fill rate
// (filled / previously-null cells) and the quarantined-document fraction.
// before is the pipeline's (immutable) target table; after is the run's
// enriched clone, or nil under Config.SkipFill — then the after-densities
// are derived from before plus the (read-only) assignments, which is exact:
// a cell leaves null state iff some assignment wrote its first value. No-op
// without a registry.
func (si *sparsityInstruments) recordRun(before, after *schema.Table, assignments []Assignment, stats *Stats) {
	if si.concepts == nil {
		return
	}
	db := conceptDensity(before, si.concepts)
	var da []float64
	if after != nil {
		da = conceptDensity(after, si.concepts)
	} else {
		da = derivedDensity(before, si.concepts, db, assignments)
	}
	rows := float64(len(before.Rows))
	var nullsBefore float64
	for i := range si.concepts {
		si.nullBefore[i].Set(db[i])
		si.nullAfter[i].Set(da[i])
		nullsBefore += db[i] * rows
	}
	for _, a := range assignments {
		if i := si.conceptIndex(a.Concept); i >= 0 {
			si.filled[i].Add(1)
		}
	}
	if nullsBefore > 0 {
		si.fillRate.Set(float64(len(assignments)) / nullsBefore)
	} else {
		si.fillRate.Set(0)
	}
	if stats.Documents > 0 {
		si.quarantineFrac.Set(float64(len(stats.Quarantined)) / float64(stats.Documents))
	}
}
