package matcher

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"

	"thor/internal/datagen"
	"thor/internal/embed"
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

// TestFineTuneFanOutDeterministic checks that spreading fine-tune over every
// core changes nothing: the Disease matcher built at GOMAXPROCS 1 and 4,
// directly and through a fresh Cache, each over a freshly decoded space (so
// the threshold index is rebuilt too), has identical representatives (order
// and Via included), identical seeds, and bit-identical fit rows for every
// seed head. Run it under -race to check the fan-out itself.
func TestFineTuneFanOutDeterministic(t *testing.T) {
	ds := datagen.Disease(datagen.DiseaseSeed)
	var raw bytes.Buffer
	if _, err := ds.Space.WriteTo(&raw); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cfg := Config{Tau: 0.5, IncludeSubject: true}
	var ref *Matcher
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, cached := range []bool{false, true} {
			space, err := embed.ReadSpace(bytes.NewReader(raw.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			var m *Matcher
			if cached {
				m, err = NewCache().FineTune(space, ds.Table, cfg)
			} else {
				m, err = FineTune(space, ds.Table, cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = m
				continue
			}
			where := fmt.Sprintf("GOMAXPROCS=%d cached=%v", procs, cached)
			checkSameFineTune(t, where, m, ref)
		}
	}
}

// checkSameFineTune asserts that got and want were fine-tuned identically:
// same concepts, seeds and representatives in the same order, and the same
// fit row, bit for bit, for every seed head word.
func checkSameFineTune(t *testing.T, where string, got, want *Matcher) {
	t.Helper()
	concepts := want.Concepts()
	if fmt.Sprint(got.Concepts()) != fmt.Sprint(concepts) {
		t.Fatalf("%s: concepts %v, want %v", where, got.Concepts(), concepts)
	}
	heads := 0
	for _, c := range concepts {
		for _, pair := range [][2][]Representative{{got.Seeds(c), want.Seeds(c)}, {got.Representatives(c), want.Representatives(c)}} {
			g, w := pair[0], pair[1]
			if len(g) != len(w) {
				t.Fatalf("%s %s: %d representatives, want %d", where, c, len(g), len(w))
			}
			for i := range g {
				if !sameRep(g[i], w[i]) {
					t.Fatalf("%s %s: representative %d = %q via %q, want %q via %q", where, c, i, g[i].Phrase, g[i].Via, w[i].Phrase, w[i].Via)
				}
			}
		}
		for _, r := range want.Representatives(c) {
			if !r.Seed {
				break // seed head words precede expansion words
			}
			heads++
			g, w := got.headFits(r.Phrase), want.headFits(r.Phrase)
			for ci := range w {
				if math.Float64bits(g[ci]) != math.Float64bits(w[ci]) {
					t.Fatalf("%s: fit of head %q against %s = %v, want %v", where, r.Phrase, concepts[ci], g[ci], w[ci])
				}
			}
		}
	}
	if heads == 0 {
		t.Fatalf("%s: no seed heads compared", where)
	}
}
