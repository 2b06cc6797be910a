package matcher

import (
	"math"
	"testing"

	"thor/internal/phrase"
)

// TestCacheExpansionPrefixSharing checks the cross-τ expansion sharing is
// transparent: fine-tuning through one cache at a high τ after a low τ (prefix
// cut of the stored lists) and in the reverse order (recompute at the lower τ)
// must both reproduce the uncached matcher's clusters exactly.
func TestCacheExpansionPrefixSharing(t *testing.T) {
	space, table := testSpace(), testTable()
	taus := []float64{0.5, 0.9, 0.7} // low→high (prefix cut), then between
	for _, order := range [][]float64{taus, {0.9, 0.5, 0.7}} {
		cache := NewCache()
		for _, tau := range order {
			cfg := Config{Tau: tau}
			want, err := FineTune(space, table, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cache.FineTune(space, table, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for ci, cl := range want.clusters {
				gcl := got.clusters[ci]
				if len(gcl.words) != len(cl.words) {
					t.Fatalf("order %v τ=%.1f %s: %d words via cache, %d direct",
						order, tau, cl.concept, len(gcl.words), len(cl.words))
				}
				for i := range cl.words {
					if !sameRep(gcl.words[i], cl.words[i]) {
						t.Fatalf("order %v τ=%.1f %s: word[%d] = %+v via cache, %+v direct",
							order, tau, cl.concept, i, gcl.words[i], cl.words[i])
					}
				}
			}
		}
	}
}

// TestCacheReverseSweepFitEquivalence pins the fit-share generation rule: a
// sweep that lowers τ replaces the cached expansion entry (longer lists, a
// fresh fit profile), while matchers built against an earlier generation keep
// answering through theirs. After the whole descending sweep, every
// generation must still agree with a direct, uncached fine-tune bit-for-bit.
func TestCacheReverseSweepFitEquivalence(t *testing.T) {
	space, table := testSpace(), testTable()
	phrases := []phrase.Phrase{
		{Words: []string{"nervous", "system"}},
		{Words: []string{"the", "skin", "cancer"}},
		{Words: []string{"severe", "scarring"}},
		{Words: []string{"memory", "loss"}},
	}
	cache := NewCache()
	taus := []float64{1.0, 0.8, 0.6, 0.5}
	ms := make([]*Matcher, len(taus))
	for i, tau := range taus {
		m, err := cache.FineTune(space, table, Config{Tau: tau})
		if err != nil {
			t.Fatalf("τ=%.1f: %v", tau, err)
		}
		ms[i] = m
	}
	for i, tau := range taus {
		want, err := FineTune(space, table, Config{Tau: tau})
		if err != nil {
			t.Fatalf("τ=%.1f: %v", tau, err)
		}
		for _, p := range phrases {
			a, b := ms[i].Match(p), want.Match(p)
			if len(a) != len(b) {
				t.Fatalf("τ=%.1f %v: %d candidates via cache, %d direct", tau, p.Words, len(a), len(b))
			}
			for j := range a {
				if a[j].Phrase != b[j].Phrase || a[j].Concept != b[j].Concept ||
					a[j].Matched != b[j].Matched || math.Float64bits(a[j].Sim) != math.Float64bits(b[j].Sim) {
					t.Fatalf("τ=%.1f %v: candidate[%d] = %+v via cache, %+v direct", tau, p.Words, j, a[j], b[j])
				}
			}
		}
	}
}
