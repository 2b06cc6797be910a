package matcher

import (
	"bytes"
	"strings"
	"testing"

	"thor/internal/datagen"
	"thor/internal/embed"
	"thor/internal/phrase"
)

// seedSearchSink keeps the benchmarked seed searches from being optimized
// away.
var seedSearchSink int

// BenchmarkSeedSearch times the c_m search (Matrix.ArgMax over a concept's
// seed matrix) on real inputs: every subphrase of every noun phrase in the
// Disease test split against every seed matrix of the pipeline's matcher
// (τ=0.5, subject concept included). One op is the whole set of pairs.
func BenchmarkSeedSearch(b *testing.B) {
	ds := datagen.Disease(datagen.DiseaseSeed)
	m, err := FineTune(ds.Space, ds.Table, Config{Tau: 0.5, IncludeSubject: true})
	if err != nil {
		b.Fatal(err)
	}
	seen := map[string]bool{}
	var queries []*embed.Query
	for _, p := range corpusPhrases(ds, len(ds.Test.Docs)) {
		for _, sp := range phrase.AppendSubphraseSpans(nil, p) {
			if sub := strings.Join(p.Words[sp.Start:sp.End], " "); !seen[sub] {
				seen[sub] = true
				q := m.basis.Query(m.space.PhraseVectorCached(sub))
				queries = append(queries, &q)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			for _, cl := range m.clusters {
				j, _ := cl.seedMat.ArgMax(q, -2.0)
				seedSearchSink += j
			}
		}
	}
	b.ReportMetric(float64(len(queries)*len(m.clusters)), "pairs/op")
}

// BenchmarkColdFineTune times the cold fine-tune of a τ sweep: decode a fresh
// Disease space from its THORVEC1 bytes (so no index or memo survives), then
// fine-tune the pipeline's matcher at τ=0.5 through a new Cache, which builds
// the threshold index, the expansion lists, the fit-share profiles and the
// warm fit rows. Decoding is timed too; it is a small share of the op.
func BenchmarkColdFineTune(b *testing.B) {
	ds := datagen.Disease(datagen.DiseaseSeed)
	var raw bytes.Buffer
	if _, err := ds.Space.WriteTo(&raw); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		space, err := embed.ReadSpace(bytes.NewReader(raw.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := NewCache().FineTune(space, ds.Table, Config{Tau: 0.5, IncludeSubject: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// indexSink keeps the benchmarked index builds from being optimized away.
var indexSink int

// BenchmarkIndexBuild times the threshold index build that opens every cold
// fine-tune: NewThresholdIndex over the Disease vocabulary, which sorts the
// words, builds the pruning basis (embed.NewBasis) and flattens the
// vocabulary into its sweep matrix.
func BenchmarkIndexBuild(b *testing.B) {
	ds := datagen.Disease(datagen.DiseaseSeed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		indexSink += embed.NewThresholdIndex(ds.Space).Len()
	}
}
