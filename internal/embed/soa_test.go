package embed

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// clusteredSpace builds a vocabulary of tight clusters plus background
// noise, the geometry the matcher queries. The centroid labels seed every
// vector, so the recorded BenchmarkNeighbors* numbers hold only while they
// stay as they are.
func clusteredSpace(clusters, perCluster, noise int) *Space {
	s := NewSpace()
	for c := 0; c < clusters; c++ {
		centroid := HashVector(fmt.Sprintf("lsh-test-centroid-%d", c))
		for i := 0; i < perCluster; i++ {
			w := fmt.Sprintf("c%dw%d", c, i)
			s.Add(w, Blend(centroid, HashVector("n:"+w), 0.8))
		}
	}
	for i := 0; i < noise; i++ {
		w := fmt.Sprintf("noise%d", i)
		s.Add(w, HashVector(w))
	}
	return s
}

// generatedSpace builds a seeded random vocabulary: up to six clusters of
// varying size and tightness, background noise, and three distinct words
// that share the vector of an existing word, so every query sees a four-way
// similarity tie that must come back in alphabetical order.
func generatedSpace(seed int64) *Space {
	rng := rand.New(rand.NewSource(seed))
	s := NewSpace()
	for c, clusters := 0, 1+rng.Intn(6); c < clusters; c++ {
		centroid := HashVector(fmt.Sprintf("gen%d-centroid-%d", seed, c))
		alpha := 0.5 + 0.45*rng.Float64()
		for i, n := 0, 1+rng.Intn(25); i < n; i++ {
			w := fmt.Sprintf("g%dc%dw%d", seed, c, i)
			s.Add(w, Blend(centroid, HashVector("n:"+w), alpha))
		}
	}
	for i, n := 0, rng.Intn(30); i < n; i++ {
		w := fmt.Sprintf("g%dnoise%d", seed, i)
		s.Add(w, HashVector(w))
	}
	shared := s.Lookup(s.Words()[rng.Intn(s.Len())])
	for _, w := range []string{"tie-c", "tie-a", "tie-b"} {
		s.Add(w, shared)
	}
	return s
}

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

// TestQuantEdgeCases covers the degenerate shapes the sketch bound and the
// four-row cosine kernel must handle: all-zero rows and queries, a
// single-row matrix, vectors at the extremes of the float32 range (the
// sketch acts on the unit direction, so magnitude must not matter), row
// counts that are not a multiple of four, and duplicate rows whose equal
// cosines sit on both sides of a four-row group boundary, where the earliest
// index must still win. The bound must stay conservative on every pair, and
// the pruned sweeps must match brute force.
func TestQuantEdgeCases(t *testing.T) {
	var tiny, huge, mixed, maxed, denorm Vector
	for j := 0; j < Dim; j++ {
		tiny[j] = float32(1e-30 * float64(j%7))
		huge[j] = float32(1e30 * float64((j%5)-2))
		if j%2 == 0 {
			mixed[j] = float32(1e-20)
			maxed[j] = math.MaxFloat32
		} else {
			mixed[j] = float32(-1e20)
			maxed[j] = -math.MaxFloat32 / 3
		}
		denorm[j] = math.SmallestNonzeroFloat32 * float32(j%3)
	}
	edge := []Vector{{}, tiny, huge, mixed, HashVector("plain"), maxed, denorm}
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

	// Every row count from 1 to 9 (one to two full four-row groups plus a
	// remainder), and the same rows with a zero row in every slot.
	for n := 1; n <= 9; n++ {
		rows := make([]Vector, n)
		for i := range rows {
			rows[i] = HashVector(fmt.Sprintf("count-%d", i))
		}
		checkSweepsMatchBrute(t, fmt.Sprintf("rows=%d", n), rows, append(rows[:n:n], Vector{}, HashVector("count-query")))
		for z := range rows {
			zeroed := append([]Vector(nil), rows...)
			zeroed[z] = Vector{}
			checkSweepsMatchBrute(t, fmt.Sprintf("rows=%d zero=%d", n, z), zeroed, zeroed)
		}
	}

	// Equal rows at 3 and 4 (the last row of the first four-row group and
	// the first of the second), at 6–8 (across the second boundary) and at
	// 0–2 (inside one group): every ArgMax must return the earliest row.
	target := HashVector("dup-target")
	dups := make([]Vector, 10)
	for i := range dups {
		dups[i] = Blend(target, HashVector(fmt.Sprintf("dup-noise-%d", i)), 0.3)
	}
	dups[3], dups[4] = target, target
	dups[7], dups[8] = dups[6], dups[6]
	dups[1], dups[2] = dups[0], dups[0]
	checkSweepsMatchBrute(t, "duplicates", dups, append(append([]Vector{target}, dups...), Vector{}))
	db := NewBasis(dups)
	dm := NewMatrix(db, dups)
	dq := db.Query(target)
	if i, _ := dm.ArgMax(&dq, -2); i != 3 {
		t.Fatalf("duplicate rows 3 and 4 tie for the maximum; ArgMax returned %d, want 3", i)
	}
	dq = db.Query(dups[6])
	if i, _ := dm.ArgMax(&dq, 0.5); i != 6 {
		t.Fatalf("rows 6, 7 and 8 tie for the maximum; ArgMax returned %d, want 6", i)
	}

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
// against brute-force CosineAt loops for every query, and checks that the
// four-row kernel returns Cosine and CosineAt bit for bit on every window of
// four consecutive rows (wrapping around, so short matrices repeat rows).
func checkSweepsMatchBrute(t *testing.T, name string, vecs, queries []Vector) {
	t.Helper()
	b := NewBasis(vecs)
	m := NewMatrix(b, vecs)
	inits := []float64{-2, 0, 0.5, 0.85, 2}
	taus := []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	for qi, qv := range queries {
		q := b.Query(qv)
		for i := range vecs {
			rows := [4]int{i, (i + 1) % len(vecs), (i + 2) % len(vecs), (i + 3) % len(vecs)}
			for k, c := range m.cosine4(&q, &rows) {
				r := rows[k]
				if math.Float64bits(c) != math.Float64bits(m.Cosine(&q, r)) ||
					math.Float64bits(c) != math.Float64bits(CosineAt(&qv, &vecs[r])) {
					t.Fatalf("%s query %d: cosine4 row %d = %v, Cosine %v, CosineAt %v",
						name, qi, r, c, m.Cosine(&q, r), CosineAt(&qv, &vecs[r]))
				}
			}
		}
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
// property: the sketch-bound index must return exactly Space.Neighbors —
// same words, same (bitwise) similarities, same order — across thresholds,
// for in-vocabulary, out-of-vocabulary, and zero queries, over generated
// spaces of several sizes plus the empty and one-word spaces. Equal
// similarities must come back in alphabetical order.
func TestThresholdIndexMatchesSpaceNeighbors(t *testing.T) {
	one := NewSpace()
	one.Add("solo", HashVector("solo"))
	type namedSpace struct {
		name string
		s    *Space
	}
	spaces := []namedSpace{{"empty", NewSpace()}, {"one-word", one}, {"clustered", clusteredSpace(6, 20, 15)}}
	for seed := int64(1); seed <= 5; seed++ {
		spaces = append(spaces, namedSpace{fmt.Sprintf("seed%d", seed), generatedSpace(seed)})
	}
	ties := 0
	for _, sp := range spaces {
		s, idx := sp.s, sp.s.Index()
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
					t.Fatalf("%s tau=%v query=%d: index returned %d neighbors, brute %d", sp.name, tau, qi, len(got), len(want))
				}
				for k := range got {
					if got[k] != want[k] {
						t.Fatalf("%s tau=%v query=%d pos=%d: index %+v, brute %+v", sp.name, tau, qi, k, got[k], want[k])
					}
					if k > 0 && got[k].Sim == got[k-1].Sim && got[k].Sim > 0 {
						ties++
						if got[k-1].Word >= got[k].Word {
							t.Fatalf("%s tau=%v query=%d: tie %q before %q", sp.name, tau, qi, got[k-1].Word, got[k].Word)
						}
					}
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no query returned tied positive similarities; the tie-break is untested")
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
