package embed

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// TestMatrixCosineBitIdentical pins the SoA contract: Matrix.Cosine must
// reproduce CosineAt bit for bit, including zero-vector conventions.
func TestMatrixCosineBitIdentical(t *testing.T) {
	s := clusteredSpace(4, 12, 8)
	words := s.Words()
	vecs := make([]Vector, 0, len(words)+1)
	for _, w := range words {
		vecs = append(vecs, s.Lookup(w))
	}
	vecs = append(vecs, Vector{}) // zero row
	b := NewBasis(vecs)
	m := NewMatrix(b, vecs)
	queries := []Vector{
		s.Lookup(words[0]),
		s.Lookup(words[len(words)/2]),
		HashVector("out-of-vocab-query"),
		{}, // zero query
	}
	for qi, qv := range queries {
		q := b.Query(qv)
		for i := range vecs {
			want := CosineAt(&qv, &vecs[i])
			if got := m.Cosine(&q, i); got != want {
				t.Fatalf("query %d row %d: Matrix.Cosine=%v CosineAt=%v (must be bit-identical)", qi, i, got, want)
			}
		}
	}
}

// TestMatrixSweepsMatchBrute checks that the bound-pruned ArgMax/Max/
// EachAtLeast sweeps return exactly what unpruned sequential sweeps return,
// including earliest-index tie-breaking.
func TestMatrixSweepsMatchBrute(t *testing.T) {
	s := clusteredSpace(5, 15, 10)
	words := s.Words()
	vecs := make([]Vector, len(words))
	for i, w := range words {
		vecs[i] = s.Lookup(w)
	}
	checkSweepsMatchBrute(t, "clustered", vecs, vecs)
}

// TestQuantEdgeCases covers the degenerate shapes the sketch bound must
// handle: all-zero rows and queries, a single-row matrix, and vectors at the
// extremes of the float32 magnitude range (the sketch acts on the unit
// direction, so magnitude must not matter). The bound must stay
// conservative on every pair, and the pruned sweeps must match brute force.
func TestQuantEdgeCases(t *testing.T) {
	var tiny, huge, mixed Vector
	for j := 0; j < Dim; j++ {
		tiny[j] = float32(1e-30 * float64(j%7))
		huge[j] = float32(1e30 * float64((j%5)-2))
		if j%2 == 0 {
			mixed[j] = float32(1e-20)
		} else {
			mixed[j] = float32(-1e20)
		}
	}
	edge := []Vector{{}, tiny, huge, mixed, HashVector("plain")}
	queries := append(append([]Vector{}, edge...), HashVector("edge-query"))
	b := NewBasis(edge)
	m := NewMatrix(b, edge)
	for qi, qv := range queries {
		q := b.Query(qv)
		for i := range edge {
			if bd, cos := m.bound(&q, i), m.Cosine(&q, i); bd+boundMargin < cos {
				t.Fatalf("query %d row %d: bound %v + margin < cosine %v", qi, i, bd, cos)
			}
		}
	}
	checkSweepsMatchBrute(t, "extremes", edge, queries)

	// Single-element cluster: a 1-row matrix must behave like the 1-element
	// sequential sweep for hits, misses and the zero query.
	single := []Vector{HashVector("solo")}
	checkSweepsMatchBrute(t, "single-row", single, []Vector{single[0], {}, HashVector("other")})
	sb := NewBasis(single)
	sm := NewMatrix(sb, single)
	q := sb.Query(single[0])
	if i, sim := sm.ArgMax(&q, -2); i != 0 || sim != sm.Cosine(&q, 0) {
		t.Fatalf("single-row ArgMax: got (%d,%v)", i, sim)
	}
	if i, _ := sm.ArgMax(&q, 2); i != -1 {
		t.Fatalf("single-row ArgMax with unreachable init returned %d", i)
	}
	zq := sb.Query(Vector{})
	if i, sim := sm.ArgMax(&zq, -1); i != 0 || sim != 0 {
		t.Fatalf("single-row zero-query ArgMax: got (%d,%v)", i, sim)
	}
}

// checkSweepsMatchBrute compares the pruned sweeps of a matrix over vecs
// against brute-force CosineAt loops for every query.
func checkSweepsMatchBrute(t *testing.T, name string, vecs, queries []Vector) {
	t.Helper()
	b := NewBasis(vecs)
	m := NewMatrix(b, vecs)
	inits := []float64{-2, 0, 0.5, 0.85, 2}
	taus := []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	for qi, qv := range queries {
		q := b.Query(qv)
		for _, init := range inits {
			wantI, want := -1, init
			for i := range vecs {
				if sim := CosineAt(&qv, &vecs[i]); sim > want {
					want, wantI = sim, i
				}
			}
			gotI, got := m.ArgMax(&q, init)
			if gotI != wantI || got != want {
				t.Fatalf("%s query %d ArgMax(init=%v): got (%d, %v), brute (%d, %v)", name, qi, init, gotI, got, wantI, want)
			}
		}
		for _, tau := range taus {
			var want []int
			for i := range vecs {
				if CosineAt(&qv, &vecs[i]) >= tau {
					want = append(want, i)
				}
			}
			var got []int
			m.EachAtLeast(&q, tau, func(i int, sim float64) {
				if wantSim := CosineAt(&qv, &vecs[i]); sim != wantSim {
					t.Fatalf("%s query %d EachAtLeast sim mismatch at %d: %v != %v", name, qi, i, sim, wantSim)
				}
				got = append(got, i)
			})
			if len(got) != len(want) {
				t.Fatalf("%s query %d EachAtLeast(tau=%v): %d rows, brute %d", name, qi, tau, len(got), len(want))
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("%s query %d EachAtLeast(tau=%v): row order diverged at %d: %v vs %v", name, qi, tau, k, got, want)
				}
			}
		}
	}
}

// TestQuantCountersAdvance checks the telemetry plumbing: a sweep moves the
// package's sketch-bound tallies, and filtered+passed accounts for every row
// of the sweep exactly once.
func TestQuantCountersAdvance(t *testing.T) {
	s := clusteredSpace(4, 10, 6)
	words := s.Words()
	vecs := make([]Vector, len(words))
	for i, w := range words {
		vecs[i] = s.Lookup(w)
	}
	b := NewBasis(vecs)
	m := NewMatrix(b, vecs)
	f0, p0 := QuantCounters()
	q := b.Query(vecs[0])
	m.ArgMax(&q, 0.95)
	f1, p1 := QuantCounters()
	if got, want := (f1-f0)+(p1-p0), uint64(m.Len()); got != want {
		t.Fatalf("counters advanced by %d, want %d (one per row)", got, want)
	}
	if f1 == f0 {
		t.Fatal("sketch bound rejected no row of a 0.95 sweep over clustered data")
	}
}

// TestThresholdIndexMatchesSpaceNeighbors is the embed-level equivalence
// property: the LSH-plus-bound index must return exactly Space.Neighbors —
// same words, same (bitwise) similarities, same order — across thresholds,
// for in-vocabulary, out-of-vocabulary, and zero queries.
func TestThresholdIndexMatchesSpaceNeighbors(t *testing.T) {
	s := clusteredSpace(6, 20, 15)
	idx := s.Index()
	queries := []Vector{{}}
	for _, w := range s.Words() {
		queries = append(queries, s.Lookup(w))
	}
	for i := 0; i < 10; i++ {
		queries = append(queries, HashVector(fmt.Sprintf("oov-query-%d", i)))
	}
	for _, tau := range []float64{-1, 0, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0} {
		for qi, qv := range queries {
			want := s.Neighbors(qv, tau)
			got := idx.Neighbors(qv, tau)
			if len(got) != len(want) {
				t.Fatalf("tau=%v query=%d: index returned %d neighbors, brute %d", tau, qi, len(got), len(want))
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("tau=%v query=%d pos=%d: index %+v, brute %+v", tau, qi, k, got[k], want[k])
				}
			}
		}
	}
}

// TestSpaceIndexInvalidatedByAdd ensures the shared index and phrase memo
// track vocabulary mutations.
func TestSpaceIndexInvalidatedByAdd(t *testing.T) {
	s := NewSpace()
	s.Add("alpha", HashVector("alpha"))
	if got := s.Index().Len(); got != 1 {
		t.Fatalf("index over 1-word space has Len %d", got)
	}
	pv1 := s.PhraseVectorCached("alpha beta")
	s.Add("beta", HashVector("beta"))
	if got := s.Index().Len(); got != 2 {
		t.Fatalf("index not rebuilt after Add: Len %d", got)
	}
	pv2 := s.PhraseVectorCached("alpha beta")
	if pv1 == pv2 {
		t.Fatal("phrase memo not invalidated: cached vector survived vocabulary change")
	}
	if want := s.PhraseVector([]string{"alpha", "beta"}); pv2 != want {
		t.Fatal("cached phrase vector diverges from PhraseVector")
	}
}

func BenchmarkNeighborsBrute(b *testing.B) {
	s := clusteredSpace(10, 80, 73)
	q := s.Lookup("c3w7")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Neighbors(q, 0.5)
	}
}

func BenchmarkNeighborsIndexed(b *testing.B) {
	s := clusteredSpace(10, 80, 73)
	idx := s.Index()
	q := s.Lookup("c3w7")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Neighbors(q, 0.5)
	}
}

// FuzzSketchBound drives the sketch bound with adversarial vectors: for any
// pair of fuzzer-chosen vectors, the bound (plus the margin) must stay above
// the exact cosine, so pruning can never drop a true candidate, and a pruned
// threshold sweep must return exactly the rows a brute-force loop keeps.
func FuzzSketchBound(f *testing.F) {
	seed := func(a, b float64) []byte {
		var buf [16]byte
		binary.LittleEndian.PutUint64(buf[0:8], math.Float64bits(a))
		binary.LittleEndian.PutUint64(buf[8:16], math.Float64bits(b))
		return buf[:]
	}
	f.Add(seed(1, -1))
	f.Add(seed(0, 0))
	f.Add(seed(1e30, 1e-30))
	f.Add(seed(math.Pi, -math.E))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode the fuzz payload into two dense vectors (repeating the bytes
		// across components) plus a third hashed from the raw payload, so the
		// basis sees both structured and arbitrary directions.
		var va, vb Vector
		for j := 0; j < Dim; j++ {
			if len(data) > 0 {
				va[j] = float32(int8(data[j%len(data)])) / 16
				vb[j] = float32(int8(data[(j*7+3)%len(data)])) / 16
			}
		}
		vecs := []Vector{va, vb, HashVector(string(data))}
		b := NewBasis(vecs)
		m := NewMatrix(b, vecs)
		for _, qv := range vecs {
			q := b.Query(qv)
			for i := range vecs {
				if bd, cos := m.bound(&q, i), m.Cosine(&q, i); bd+boundMargin < cos {
					t.Fatalf("bound %v + margin < cosine %v (row %d)", bd, cos, i)
				}
			}
			for _, tau := range []float64{0.3, 0.7, 0.95} {
				var got, want []int
				m.EachAtLeast(&q, tau, func(i int, _ float64) { got = append(got, i) })
				for i := range vecs {
					if m.Cosine(&q, i) >= tau {
						want = append(want, i)
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("tau=%v: pruned sweep kept %v, brute force %v", tau, got, want)
				}
			}
		}
	})
}
