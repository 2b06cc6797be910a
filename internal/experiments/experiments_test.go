package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// These tests assert the paper's qualitative claims — the orderings,
// monotonicities and crossovers of Section VI — on the shared comparison
// results. They are the repository's reproduction contract.

func TestExperiment1TauTradeoffShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full comparison is slow")
	}
	c := DiseaseComparison()
	if len(c.Thor) != len(Taus) {
		t.Fatalf("thor sweep rows = %d", len(c.Thor))
	}
	// Precision must not decrease by more than noise as τ grows; the ends
	// must order strictly (Table V: 0.39 → 0.63).
	first, last := c.Thor[0].Report.Overall, c.Thor[len(c.Thor)-1].Report.Overall
	if !(last.Precision() > first.Precision()) {
		t.Errorf("precision did not rise with τ: %.3f -> %.3f", first.Precision(), last.Precision())
	}
	if !(last.Recall() < first.Recall()-0.15) {
		t.Errorf("recall did not fall with τ: %.3f -> %.3f", first.Recall(), last.Recall())
	}
	for i := 1; i < len(c.Thor); i++ {
		p0, p1 := c.Thor[i-1].Report.Overall.Precision(), c.Thor[i].Report.Overall.Precision()
		if p1 < p0-0.04 {
			t.Errorf("precision dropped sharply at τ=%.1f: %.3f -> %.3f", c.Thor[i].Tau, p0, p1)
		}
	}
	// The F1 peak must fall strictly inside the sweep (Table V: τ=0.7).
	bestIdx, bestF1 := 0, 0.0
	for i, r := range c.Thor {
		if f := r.Report.Overall.F1(); f > bestF1 {
			bestIdx, bestF1 = i, f
		}
	}
	if bestIdx == 0 || bestIdx == len(c.Thor)-1 {
		t.Errorf("F1 peak at sweep boundary (τ=%.1f)", c.Thor[bestIdx].Tau)
	}
}

func TestExperiment1InferenceTimeDropsWithTau(t *testing.T) {
	if testing.Short() {
		t.Skip("full comparison is slow")
	}
	c := DiseaseComparison()
	// Fig 6: stricter τ means fewer representatives and candidates, so the
	// run does less work. The work is deterministic: candidates must fall at
	// every step (17,894 at τ=0.5 down to 3,408 at τ=1.0).
	for i := 1; i < len(c.Thor); i++ {
		if prev, cur := c.Thor[i-1], c.Thor[i]; cur.Stats.Candidates >= prev.Stats.Candidates {
			t.Errorf("candidates did not drop: τ=%.1f %d vs τ=%.1f %d",
				prev.Tau, prev.Stats.Candidates, cur.Tau, cur.Stats.Candidates)
		}
	}
	// Each row's time is the median of cold runs, so it measures τ and not
	// the sweep order. Compare the sweep ends (individual steps may jitter).
	if !(c.Thor[len(c.Thor)-1].Measured < c.Thor[0].Measured) {
		t.Errorf("inference time did not drop: τ=0.5 %v vs τ=1.0 %v",
			c.Thor[0].Measured, c.Thor[len(c.Thor)-1].Measured)
	}
}

func TestExperiment1SystemOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("full comparison is slow")
	}
	c := DiseaseComparison()
	thorBest := c.ThorAt(BestTau).Report.Overall.F1()
	f1 := func(name string) float64 { return c.Other(name).Report.Overall.F1() }

	// Table V's headline: THOR beats every alternative except LM-Human.
	for _, name := range []string{"Baseline", "LM-SD", "GPT-4", "UniNER"} {
		if thorBest <= f1(name) {
			t.Errorf("THOR (%.3f) should beat %s (%.3f)", thorBest, name, f1(name))
		}
	}
	if f1("LM-Human") <= thorBest {
		t.Errorf("LM-Human (%.3f) should beat THOR (%.3f)", f1("LM-Human"), thorBest)
	}
	// Baseline: high precision, collapsed recall.
	b := c.Other("Baseline").Report.Overall
	if b.Recall() > 0.30 {
		t.Errorf("Baseline recall = %.3f, should collapse (paper: 0.18)", b.Recall())
	}
	// LM-Human: the precision champion.
	lh := c.Other("LM-Human").Report.Overall
	for _, r := range c.All() {
		if r.Name != "LM-Human" && r.Report.Overall.Precision() >= lh.Precision() {
			t.Errorf("%s precision (%.3f) >= LM-Human (%.3f)",
				r.Name, r.Report.Overall.Precision(), lh.Precision())
		}
	}
}

func TestExperiment1FailureModes(t *testing.T) {
	if testing.Short() {
		t.Skip("full comparison is slow")
	}
	c := DiseaseComparison()
	// UniNER scores zero on the under-represented Composition class
	// (Table VII).
	un := c.Other("UniNER").Report
	if o := un.PerConcept["Composition"]; o.Predicted() != 0 || o.TP() != 0 {
		t.Errorf("UniNER on Composition: %+v, want zero", o)
	}
	// LM-SD is biased toward the majority class: 'Disease' takes an outsized
	// share of its predictions (Table VII: 819/2421 ≈ 34%%).
	sd := c.Other("LM-SD").Report
	share := float64(sd.PerConcept["Disease"].Predicted()) / float64(sd.Overall.Predicted())
	if share < 0.18 {
		t.Errorf("LM-SD Disease share = %.2f, majority-class bias not visible", share)
	}
	// THOR has the best overall sensitivity (Table VIII).
	thorSens := c.ThorAt(0.8).Report.Overall.Sensitivity()
	for _, r := range c.Others {
		if name := r.Name; name != "LM-Human" && r.Report.Overall.Sensitivity() >= thorSens {
			t.Errorf("%s sensitivity (%.3f) >= THOR (%.3f)",
				name, r.Report.Overall.Sensitivity(), thorSens)
		}
	}
}

func TestExperiment2AnnotationStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("annotation study is slow")
	}
	s := Annotation()
	if len(s.Points) != len(AnnotationSubsets) {
		t.Fatalf("points = %d", len(s.Points))
	}
	// F1 must grow with annotation volume (within noise).
	for i := 1; i < len(s.Points); i++ {
		if s.Points[i].F1 < s.Points[i-1].F1-0.05 {
			t.Errorf("F1 dropped between %s (%.3f) and %s (%.3f)",
				s.Points[i-1].Name, s.Points[i-1].F1, s.Points[i].Name, s.Points[i].F1)
		}
	}
	// The smallest subset must be far below THOR; the full model above it.
	if s.Points[0].F1 >= s.ThorF1 {
		t.Error("single-subject LM-Human should not beat THOR")
	}
	last := s.Points[len(s.Points)-1]
	if last.F1 <= s.ThorF1 {
		t.Errorf("fully annotated LM-Human (%.3f) should beat THOR (%.3f)", last.F1, s.ThorF1)
	}
	// The crossover must land strictly inside the sweep (paper: 20
	// subjects), implying tens of hours of annotation for parity.
	if s.CrossoverSubjects <= 1 || s.CrossoverSubjects >= 240 {
		t.Errorf("crossover at %d subjects, want inside the sweep", s.CrossoverSubjects)
	}
	// Annotation time grows linearly with words and is conservative.
	for _, p := range s.Points {
		if p.AnnotationSeconds != s.Cost.SecondsForWords(p.Words) {
			t.Errorf("%s: annotation time mismatch", p.Name)
		}
	}
	// THOR's effort column is zero by construction: no annotations at all.
	if s.ThorWords <= 0 || s.ThorEntities <= 0 {
		t.Error("THOR's structured-data stats missing")
	}
}

func TestExperiment3Generalizability(t *testing.T) {
	if testing.Short() {
		t.Skip("full comparison is slow")
	}
	c := ResumeComparison()
	// Table XI lists THOR's top-3 precision rows; its recall claim is made
	// for the τ=0.8 configuration (paper: R=0.50, highest of all systems).
	thorRecallRow := c.ThorAt(0.8).Report.Overall
	thor := c.ThorAt(1.0).Report.Overall

	// THOR has the highest recall and TP count of all systems.
	for _, r := range c.Others {
		if r.Report.Overall.Recall() >= thorRecallRow.Recall() {
			t.Errorf("%s recall (%.3f) >= THOR τ=0.8 (%.3f)",
				r.Name, r.Report.Overall.Recall(), thorRecallRow.Recall())
		}
		if r.Report.Overall.TP() >= thorRecallRow.TP() {
			t.Errorf("%s TP (%d) >= THOR τ=0.8 (%d)", r.Name, r.Report.Overall.TP(), thorRecallRow.TP())
		}
	}
	// GPT-4 and THOR are the two best F1s, close together.
	gpt := c.Other("GPT-4").Report.Overall
	for _, name := range []string{"Baseline", "LM-SD", "UniNER", "LM-Human"} {
		o := c.Other(name).Report.Overall
		if o.F1() >= thor.F1() && o.F1() >= gpt.F1() {
			t.Errorf("%s F1 (%.3f) beats both THOR (%.3f) and GPT-4 (%.3f)",
				name, o.F1(), thor.F1(), gpt.F1())
		}
	}
	// UniNER collapses (context window + coverage): recall far below its
	// Disease A-Z figure.
	if r := c.Other("UniNER").Report.Overall.Recall(); r > 0.25 {
		t.Errorf("UniNER résumé recall = %.3f, should collapse", r)
	}
	// Every system scores lower on Résumé than on Disease A-Z (the
	// generalizability gap).
	d := DiseaseComparison()
	for _, name := range []string{"LM-SD", "UniNER", "LM-Human"} {
		if c.Other(name).Report.Overall.F1() >= d.Other(name).Report.Overall.F1() {
			t.Errorf("%s should score lower on Résumé than Disease A-Z", name)
		}
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("full comparison is slow")
	}
	c := DiseaseComparison()
	s := Annotation()
	r := ResumeComparison()
	checks := []struct {
		name   string
		render func(buf *bytes.Buffer)
		want   string
	}{
		{"TableV", func(b *bytes.Buffer) { RenderTableV(b, c) }, "Table V"},
		{"Fig5", func(b *bytes.Buffer) { RenderFig5(b, c) }, "Fig 5"},
		{"Fig6", func(b *bytes.Buffer) { RenderFig6(b, c) }, "Fig 6"},
		{"TableVI", func(b *bytes.Buffer) { RenderTableVI(b, c) }, "Table VI"},
		{"Fig7", func(b *bytes.Buffer) { RenderFig7(b, c) }, "Fig 7"},
		{"TableVII", func(b *bytes.Buffer) { RenderTableVII(b, c) }, "Table VII"},
		{"TableVIII", func(b *bytes.Buffer) { RenderTableVIII(b, c) }, "Table VIII"},
		{"TableIX", func(b *bytes.Buffer) { RenderTableIX(b, s) }, "Table IX"},
		{"TableX", func(b *bytes.Buffer) { RenderTableX(b, s) }, "Table X"},
		{"Fig8", func(b *bytes.Buffer) { RenderFig8(b, s) }, "Fig 8"},
		{"TableXI", func(b *bytes.Buffer) { RenderTableXI(b, r) }, "Table XI"},
		{"Fig9", func(b *bytes.Buffer) { RenderFig7(b, r) }, "Fig 7/9"},
		{"Fig10", func(b *bytes.Buffer) { RenderFig10(b, r) }, "Fig 10"},
	}
	for _, chk := range checks {
		var buf bytes.Buffer
		chk.render(&buf)
		out := buf.String()
		if !strings.Contains(out, chk.want) {
			t.Errorf("%s: missing header %q in output", chk.name, chk.want)
		}
		if len(strings.Split(out, "\n")) < 4 {
			t.Errorf("%s: suspiciously short output:\n%s", chk.name, out)
		}
	}
}

func TestSimulatedCostModel(t *testing.T) {
	// At the paper's corpus sizes the cost model must reproduce the
	// magnitudes of Table V (3,626 / 3,564 / 3,298 seconds).
	const tableWords, trainWords, testWords = 14010, 168816, 19237
	cases := []struct {
		model    string
		min, max float64
	}{
		{"LM-SD", 3000, 4300},
		{"LM-Human", 3000, 4300},
		{"UniNER", 2700, 3900},
		{"Baseline", 0, 0},
		{"GPT-4", 0, 0},
	}
	for _, c := range cases {
		got := SimulatedCost(c.model, tableWords, trainWords, testWords).Seconds()
		if got < c.min || got > c.max {
			t.Errorf("SimulatedCost(%s) = %.0fs, want [%.0f, %.0f]", c.model, got, c.min, c.max)
		}
	}
}

func TestTrainSubset(t *testing.T) {
	ds := DiseaseDataset()
	sub := trainSubset(ds, 5)
	if len(sub.Subjects) != 5 {
		t.Fatalf("subjects = %d", len(sub.Subjects))
	}
	keep := map[string]bool{}
	for _, s := range sub.Subjects {
		keep[strings.ToLower(s)] = true
	}
	for _, d := range sub.Docs {
		if !keep[strings.ToLower(d.DefaultSubject)] {
			t.Errorf("doc %q outside subset", d.Name)
		}
	}
	for _, g := range sub.Gold {
		if !keep[g.Subject] {
			t.Errorf("gold mention %v outside subset", g)
		}
	}
	full := trainSubset(ds, 100000)
	if len(full.Subjects) != len(ds.Train.Subjects) {
		t.Error("oversized subset should return the full split")
	}
}

func TestWriteCSVSeries(t *testing.T) {
	if testing.Short() {
		t.Skip("full comparison is slow")
	}
	dir := t.TempDir()
	if err := WriteCSVSeries(dir, DiseaseComparison(), ResumeComparison(), Annotation()); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"table5.csv", "fig5.csv", "fig6.csv", "table6.csv", "fig7.csv",
		"table7.csv", "table8.csv", "table10.csv", "fig8.csv",
		"table11.csv", "fig9.csv", "fig10.csv",
	} {
		body, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		lines := strings.Count(string(body), "\n")
		if lines < 3 {
			t.Errorf("%s: only %d lines", name, lines)
		}
	}
}

func TestTuneTauOnValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("validation sweep is slow")
	}
	ds := DiseaseDataset()
	f1Tune, err := TuneTau(ds, TuneF1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f1Tune.Scores) != len(Taus) {
		t.Fatalf("scores = %d", len(f1Tune.Scores))
	}
	// The F1-optimal τ must fall strictly inside the sweep (the validation
	// split mirrors the test split's geometry).
	if f1Tune.Tau == Taus[0] || f1Tune.Tau == Taus[len(Taus)-1] {
		t.Errorf("validation-tuned τ at boundary: %.1f", f1Tune.Tau)
	}
	// Precision-tuning must pick a τ ≥ recall-tuning's choice.
	pTune, err := TuneTau(ds, TunePrecision)
	if err != nil {
		t.Fatal(err)
	}
	rTune, err := TuneTau(ds, TuneRecall)
	if err != nil {
		t.Fatal(err)
	}
	if pTune.Tau < rTune.Tau {
		t.Errorf("precision τ (%.1f) below recall τ (%.1f)", pTune.Tau, rTune.Tau)
	}
	// The tuned τ must transfer: its test-split F1 must be within a small
	// margin of the test-optimal τ's F1.
	c := DiseaseComparison()
	tuned := c.ThorAt(f1Tune.Tau).Report.Overall.F1()
	best := 0.0
	for _, r := range c.Thor {
		if f := r.Report.Overall.F1(); f > best {
			best = f
		}
	}
	if tuned < best-0.04 {
		t.Errorf("validation-tuned τ transfers poorly: %.3f vs best %.3f", tuned, best)
	}
}
