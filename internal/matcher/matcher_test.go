package matcher

import (
	"strings"
	"testing"

	"thor/internal/embed"
	"thor/internal/phrase"
	"thor/internal/schema"
)

// testSpace builds an embedding space with two planted concept clusters
// matching the paper's running example: 'Anatomy' around one centroid,
// 'Complication' around another.
func testSpace() *embed.Space {
	s := embed.NewSpace()
	anatomy := embed.HashVector("centroid:anatomy")
	complication := embed.HashVector("centroid:complication")
	addCluster := func(centroid embed.Vector, words ...string) {
		for _, w := range words {
			for _, part := range strings.Fields(w) {
				s.Add(part, embed.Blend(centroid, embed.HashVector("noise:"+part), 0.85))
			}
		}
	}
	addCluster(anatomy, "nervous system", "brain", "nerve", "spine", "ear", "lungs")
	addCluster(complication, "cancer", "tumor", "unsteadiness", "empyema", "scarring")
	// "skin" deliberately sits between clusters (cross-concept confusion).
	s.Add("skin", embed.Blend(anatomy, complication, 0.5))
	return s
}

func testTable() *schema.Table {
	t := schema.NewTable(schema.NewSchema("Disease", "Anatomy", "Complication"))
	r := t.AddRow("Acoustic Neuroma")
	r.Add("Anatomy", "nervous system")
	r2 := t.AddRow("Tuberculosis")
	r2.Add("Complication", "skin cancer")
	return t
}

func newMatcher(t *testing.T, tau float64, opts ...func(*Config)) *Matcher {
	t.Helper()
	cfg := Config{Tau: tau}
	for _, o := range opts {
		o(&cfg)
	}
	m, err := FineTune(testSpace(), testTable(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFineTuneBuildsClusters(t *testing.T) {
	m := newMatcher(t, 0.7)
	concepts := m.Concepts()
	if len(concepts) != 2 {
		t.Fatalf("concepts = %v", concepts)
	}
	seeds := m.Seeds("Anatomy")
	if len(seeds) != 1 || !seeds[0].Seed || seeds[0].Phrase != "nervous system" {
		t.Errorf("seeds = %+v, want the known instance", seeds)
	}
	reps := m.Representatives("Anatomy")
	if len(reps) == 0 {
		t.Fatal("no representatives for Anatomy")
	}
	// The seed instance's head word comes first.
	if !reps[0].Seed || reps[0].Phrase != "system" {
		t.Errorf("first representative should be the seed head word: %+v", reps[0])
	}
	// τ-expansion must pull in cluster neighbors like 'brain'.
	foundBrain := false
	for _, r := range reps {
		if r.Phrase == "brain" && !r.Seed {
			foundBrain = true
		}
	}
	if !foundBrain {
		t.Errorf("expansion missed 'brain': %+v", reps)
	}
}

func TestFineTuneExpansionShrinksWithTau(t *testing.T) {
	loose := len(newMatcher(t, 0.5).Representatives("Anatomy"))
	strict := len(newMatcher(t, 0.95).Representatives("Anatomy"))
	if strict >= loose {
		t.Errorf("representatives: strict τ=%d should be fewer than loose τ=%d", strict, loose)
	}
}

func TestFineTuneDisableExpansion(t *testing.T) {
	m := newMatcher(t, 0.5, func(c *Config) { c.DisableExpansion = true })
	for _, rep := range m.Representatives("Anatomy") {
		if !rep.Seed {
			t.Errorf("expansion disabled but non-seed representative present: %+v", rep)
		}
	}
}

func TestFineTuneIncludeSubject(t *testing.T) {
	m := newMatcher(t, 0.7, func(c *Config) { c.IncludeSubject = true })
	if len(m.Concepts()) != 3 {
		t.Errorf("IncludeSubject: concepts = %v", m.Concepts())
	}
}

func TestFineTuneErrors(t *testing.T) {
	if _, err := FineTune(nil, testTable(), Config{}); err == nil {
		t.Error("nil space should error")
	}
	if _, err := FineTune(testSpace(), nil, Config{}); err == nil {
		t.Error("nil table should error")
	}
	if _, err := FineTune(testSpace(), testTable(), Config{Tau: 1.5}); err == nil {
		t.Error("tau out of range should error")
	}
	empty := schema.NewTable(schema.NewSchema("Disease", "Anatomy"))
	if _, err := FineTune(testSpace(), empty, Config{Tau: 0.7}); err == nil {
		t.Error("table without seeds should error")
	}
}

func TestMatchNovelInstance(t *testing.T) {
	// 'brain' never appears in the table, but clusters with the Anatomy
	// seed: the matcher must conceptualize it (the OOV capability the
	// Baseline lacks).
	m := newMatcher(t, 0.6)
	cands := m.Match(phrase.Phrase{Words: []string{"brain"}})
	if len(cands) == 0 {
		t.Fatal("no candidates for novel instance 'brain'")
	}
	if cands[0].Concept != "Anatomy" {
		t.Errorf("brain matched to %v, want Anatomy", cands[0].Concept)
	}
	if cands[0].Matched != "nervous system" {
		t.Errorf("c_m = %q, want the seed instance", cands[0].Matched)
	}
}

func TestMatchSubphrases(t *testing.T) {
	// The running example: 'non-cancerous brain tumor' must surface both an
	// Anatomy candidate (via 'brain') and a Complication candidate (via the
	// tumor/cancer material).
	m := newMatcher(t, 0.6)
	cands := m.Match(phrase.Phrase{Words: []string{"non-cancerous", "brain", "tumor"}})
	byConcept := map[schema.Concept]bool{}
	for _, c := range cands {
		byConcept[c.Concept] = true
	}
	if !byConcept["Anatomy"] || !byConcept["Complication"] {
		t.Errorf("expected candidates for both concepts, got %+v", cands)
	}
}

func TestMatchStricterTauFewerMatches(t *testing.T) {
	ph := phrase.Phrase{Words: []string{"brain"}}
	loose := len(newMatcher(t, 0.5).Match(ph))
	strict := len(newMatcher(t, 1.0).Match(ph))
	if strict > loose {
		t.Errorf("stricter tau should not yield more matches: %d > %d", strict, loose)
	}
}

func TestMatchOrderingAndDedupe(t *testing.T) {
	m := newMatcher(t, 0.5)
	cands := m.Match(phrase.Phrase{Words: []string{"brain", "tumor"}})
	for i := 1; i < len(cands); i++ {
		if cands[i].Sim > cands[i-1].Sim {
			t.Errorf("candidates not sorted by similarity: %v", cands)
		}
	}
	seen := map[string]bool{}
	for _, c := range cands {
		key := c.Phrase + "|" + string(c.Concept)
		if seen[key] {
			t.Errorf("duplicate candidate %s", key)
		}
		seen[key] = true
	}
}

func TestMatchEmptyPhrase(t *testing.T) {
	m := newMatcher(t, 0.7)
	if got := m.Match(phrase.Phrase{}); len(got) != 0 {
		t.Errorf("empty phrase produced candidates: %v", got)
	}
}

func TestSimilarityClamped(t *testing.T) {
	m := newMatcher(t, 0.7)
	if s := m.Similarity("brain", "brain"); s < 0.99 {
		t.Errorf("self-similarity = %v", s)
	}
	if s := m.Similarity("brain", "zzzzqqq"); s < 0 {
		t.Errorf("similarity should clamp at 0, got %v", s)
	}
}

// TestMatchBufReuse pins the MatchBuf contract: the returned slice is scratch
// that the next call may overwrite, while Match hands out an independent copy.
func TestMatchBufReuse(t *testing.T) {
	m := newMatcher(t, 0.7)
	ctx := m.NewContext()
	p1 := phrase.Phrase{Words: []string{"nervous", "system"}}
	p2 := phrase.Phrase{Words: []string{"skin", "cancer"}}
	buf := ctx.MatchBuf(p1)
	if len(buf) == 0 {
		t.Fatal("no candidates for the seed phrase")
	}
	first := buf[0]
	copied := ctx.Match(p1)
	ctx.MatchBuf(p2) // overwrites the scratch behind buf
	if copied[0] != first {
		t.Fatalf("Match copy mutated by later MatchBuf: %+v vs %+v", copied[0], first)
	}
}
