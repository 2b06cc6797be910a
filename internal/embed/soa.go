package embed

import (
	"math"
	"sync/atomic"

	"thor/internal/par"
)

// This file implements the vectorized (structure-of-arrays) form of the
// similarity sweeps the matcher runs millions of times per pipeline: a
// Matrix stores a set of vectors as one contiguous float64 slab with
// precomputed norms, so a sweep is a cache-friendly run of dot products with
// no per-pair norm accumulation and no float32→float64 conversion.
//
// Bit-for-bit equivalence contract: Matrix.Cosine reproduces CosineAt
// exactly. CosineAt accumulates dot, |v|² and |w|² in three independent
// single accumulators over ascending indices; precomputing |w|² per row and
// |v|² per query yields the identical float64 values (same operand values —
// float32→float64 conversion is exact — combined in the same order), and the
// final dot/√(nv·nw) expression and clamp are unchanged. The equivalence
// property tests in embed and matcher pin this contract.
//
// On top of the slab, each row carries a low-dimensional sketch that yields
// a cheap, *conservative* upper bound on the cosine against any query
// (Cauchy–Schwarz on the component outside the sketch subspace). Sweeps use
// the bound only to skip rows that provably cannot beat the current best or
// reach a threshold, so pruned sweeps return exactly what full sweeps do.

// sketchFiltered and sketchPassed count, package-wide, the rows the sketch
// bound rejected versus let through to the exact cosine. Sweeps accumulate
// locally and flush once per sweep, so the counters cost two atomic adds per
// sweep.
var sketchFiltered, sketchPassed atomic.Uint64

// QuantCounters returns the cumulative number of rows the sketch bound
// rejected (filtered) and the rows that reached the exact cosine (passed)
// since process start. Intended for telemetry deltas; both counters are
// monotonic. Every row a sweep reaches meets the bound first, so passed
// counts only rows the bound could not reject. The name predates the
// removal of the int8 screen that used to sit in front of the sketch bound.
func QuantCounters() (filtered, passed uint64) {
	return sketchFiltered.Load(), sketchPassed.Load()
}

// addSweepStats flushes one sweep's screening tallies.
func addSweepStats(filtered, passed uint64) {
	if filtered != 0 {
		sketchFiltered.Add(filtered)
	}
	if passed != 0 {
		sketchPassed.Add(passed)
	}
}

// SketchDim is the dimensionality of the pruning sketch. The basis is built
// from the data's dominant directions (see NewBasis), so a couple dozen
// components capture the concept-centroid structure the synthetic spaces and
// real embedding tables share; what the sketch misses only weakens the bound,
// never correctness.
const SketchDim = 24

// boundMargin absorbs the floating-point error between the float64 bound
// and the float64 cosine (both within ~1e-12 of their real values): a row is
// skipped only when its bound clears the target by this margin, so rounding
// can never skip a row the exact sweep would keep.
const boundMargin = 1e-6

// Basis is a deterministic orthonormal set of directions used to sketch
// vectors for bound pruning. A Basis is immutable and safe for concurrent
// use; all Matrices and Queries compared together must share one Basis.
type Basis struct {
	dirs [][Dim]float64 // orthonormal rows, at most SketchDim of them
}

// NewBasis builds a pruning basis from a sample of the vectors it will
// screen, by pivoted Gram–Schmidt: it repeatedly takes the sample vector
// with the largest residual outside the span so far and orthonormalizes it
// in. On clustered data this recovers the cluster centroids first, which is
// what makes the sketch bound tight. The construction is deterministic in
// the order of vs (ties pick the earliest). A nil or empty sample yields an
// empty basis whose bound is vacuous (always 1) but still correct.
func NewBasis(vs []Vector) *Basis {
	b := &Basis{}
	if len(vs) == 0 {
		return b
	}
	// Unit-normalized float64 residuals.
	resid := make([][Dim]float64, 0, len(vs))
	for i := range vs {
		var r [Dim]float64
		n := 0.0
		for j, x := range vs[i] {
			f := float64(x)
			r[j] = f
			n += f * f
		}
		if n == 0 {
			continue
		}
		inv := 1 / math.Sqrt(n)
		for j := range r {
			r[j] *= inv
		}
		resid = append(resid, r)
	}
	for len(b.dirs) < SketchDim {
		// Pick the vector with the largest residual norm².
		bestI, bestN := -1, 0.0
		for i := range resid {
			n := 0.0
			for j := range resid[i] {
				n += resid[i][j] * resid[i][j]
			}
			if n > bestN {
				bestI, bestN = i, n
			}
		}
		// Once every residual is small the remaining mass is diffuse noise; a
		// further direction would barely tighten the bound.
		if bestI < 0 || bestN < 0.05 {
			break
		}
		dir := resid[bestI]
		inv := 1 / math.Sqrt(bestN)
		for j := range dir {
			dir[j] *= inv
		}
		// Re-orthonormalize against the accepted set (second Gram–Schmidt
		// pass) so accumulated rounding stays ~1e-15, far inside boundMargin.
		for _, d := range b.dirs {
			dot := 0.0
			for j := range dir {
				dot += dir[j] * d[j]
			}
			for j := range dir {
				dir[j] -= dot * d[j]
			}
		}
		n := 0.0
		for j := range dir {
			n += dir[j] * dir[j]
		}
		if n < 1e-12 {
			break
		}
		inv = 1 / math.Sqrt(n)
		for j := range dir {
			dir[j] *= inv
		}
		b.dirs = append(b.dirs, dir)
		// Deflate all residuals.
		for i := range resid {
			dot := 0.0
			for j := range resid[i] {
				dot += resid[i][j] * dir[j]
			}
			for j := range resid[i] {
				resid[i][j] -= dot * dir[j]
			}
		}
	}
	return b
}

// sketch computes the basis coordinates and off-span residual norm of the
// unit direction of v. comps must hold v converted to float64 and nv its
// CosineAt-style squared norm.
func (b *Basis) sketch(comps []float64, nv float64, sk []float64) (resid float64) {
	if nv == 0 {
		for t := range b.dirs {
			sk[t] = 0
		}
		for t := len(b.dirs); t < len(sk); t++ {
			sk[t] = 0
		}
		return 0
	}
	inv := 1 / math.Sqrt(nv)
	rem := 1.0
	for t := range b.dirs {
		dot := 0.0
		d := &b.dirs[t]
		for j := 0; j < Dim; j++ {
			dot += comps[j] * d[j]
		}
		dot *= inv
		sk[t] = dot
		rem -= dot * dot
	}
	for t := len(b.dirs); t < len(sk); t++ {
		sk[t] = 0
	}
	if rem < 0 {
		rem = 0
	}
	return math.Sqrt(rem)
}

// Query is a precomputed view of one query vector: float64 components, the
// CosineAt-style squared norm, and the pruning sketch. Queries are cheap to
// build relative to a sweep and may be reused across any Matrix sharing the
// same Basis.
type Query struct {
	comps [Dim]float64
	nv    float64
	sk    [SketchDim]float64
	resid float64
}

// Query precomputes the sweep view of v under the basis.
func (b *Basis) Query(v Vector) Query {
	var q Query
	for i, x := range v {
		f := float64(x)
		q.comps[i] = f
		q.nv += f * f
	}
	q.resid = b.sketch(q.comps[:], q.nv, q.sk[:])
	return q
}

// Zero reports whether the query vector had no magnitude (every cosine
// against it is 0, matching CosineAt).
func (q *Query) Zero() bool { return q.nv == 0 }

// Matrix is a set of vectors flattened into one contiguous float64 slab with
// precomputed norms and pruning sketches. Immutable after construction and
// safe for concurrent sweeps.
type Matrix struct {
	basis *Basis
	n     int
	comps []float64 // n rows of Dim components
	norm  []float64 // per-row squared norm, accumulated exactly as CosineAt does
	sk    []float64 // n rows of SketchDim unit-direction coordinates
	resid []float64 // per-row off-span residual norm
}

// NewMatrix flattens vs under the basis, spreading the rows over every core.
// The rows keep their order, so row indices align with the caller's slice.
func NewMatrix(b *Basis, vs []Vector) *Matrix {
	m := &Matrix{
		basis: b,
		n:     len(vs),
		comps: make([]float64, len(vs)*Dim),
		norm:  make([]float64, len(vs)),
		sk:    make([]float64, len(vs)*SketchDim),
		resid: make([]float64, len(vs)),
	}
	row := func(i int) {
		row := m.comps[i*Dim : (i+1)*Dim]
		nw := 0.0
		for j, x := range vs[i] {
			f := float64(x)
			row[j] = f
			nw += f * f
		}
		m.norm[i] = nw
		m.resid[i] = b.sketch(row, nw, m.sk[i*SketchDim:(i+1)*SketchDim])
	}
	par.For(len(vs), row)
	return m
}

// Len returns the number of rows.
func (m *Matrix) Len() int { return m.n }

// Basis returns the sketch basis the matrix was flattened under; queries for
// this matrix must be built with it.
func (m *Matrix) Basis() *Basis { return m.basis }

// Cosine returns the cosine similarity between the query and row i,
// bit-identical to CosineAt on the original vectors.
func (m *Matrix) Cosine(q *Query, i int) float64 {
	row := m.comps[i*Dim : (i+1)*Dim]
	var dot float64
	for j := 0; j < Dim; j++ {
		dot += q.comps[j] * row[j]
	}
	return cosineOf(dot, q.nv, m.norm[i])
}

// cosineOf finishes a cosine from its dot product and the two squared norms,
// exactly as CosineAt does.
func cosineOf(dot, nv, nw float64) float64 {
	if nv == 0 || nw == 0 {
		return 0
	}
	c := dot / math.Sqrt(nv*nw)
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return c
}

// cosine4 returns Cosine(q, rows[k]) for the four rows, bit for bit. Each
// row keeps its own accumulator over ascending components, written as in
// Cosine; interleaving the four independent chains only lets the processor
// overlap their adds, which a single chain serializes on add latency.
func (m *Matrix) cosine4(q *Query, rows *[4]int) (c [4]float64) {
	r0 := m.comps[rows[0]*Dim:][:Dim]
	r1 := m.comps[rows[1]*Dim:][:Dim]
	r2 := m.comps[rows[2]*Dim:][:Dim]
	r3 := m.comps[rows[3]*Dim:][:Dim]
	var d0, d1, d2, d3 float64
	for j := 0; j < Dim; j++ {
		x := q.comps[j]
		d0 += x * r0[j]
		d1 += x * r1[j]
		d2 += x * r2[j]
		d3 += x * r3[j]
	}
	c[0] = cosineOf(d0, q.nv, m.norm[rows[0]])
	c[1] = cosineOf(d1, q.nv, m.norm[rows[1]])
	c[2] = cosineOf(d2, q.nv, m.norm[rows[2]])
	c[3] = cosineOf(d3, q.nv, m.norm[rows[3]])
	return c
}

// bound returns a conservative upper bound on Cosine(q, i): the sketch
// coordinates carry the in-span part of the dot product and Cauchy–Schwarz
// bounds the off-span part by the product of the residual norms.
func (m *Matrix) bound(q *Query, i int) float64 {
	sk := m.sk[i*SketchDim : (i+1)*SketchDim]
	ub := q.resid * m.resid[i]
	for t := 0; t < SketchDim; t++ {
		ub += q.sk[t] * sk[t]
	}
	return ub
}

// ArgMax returns the index and similarity of the first row whose cosine
// attains the maximum among rows with cosine strictly greater than init
// (-1 if no row exceeds init). It reproduces the sequential
// "if sim > best { best = sim }" sweep exactly — including which index wins
// on ties — while using the sketch bound to skip rows that provably cannot
// exceed the running best.
//
// Rows that pass the bound are buffered and scored four at a time by
// cosine4, then folded into the running best in row order. A row is tested
// against the best as of the last fold, which is never above the true
// running best, so the bound still skips only rows that cannot win.
func (m *Matrix) ArgMax(q *Query, init float64) (int, float64) {
	bestI, best := -1, init
	if q.nv == 0 {
		// Every cosine is 0, matching CosineAt's zero-vector convention.
		if best < 0 && m.n > 0 {
			return 0, 0
		}
		return -1, init
	}
	var filtered, passed uint64
	var rows [4]int
	pending := 0
	for i := 0; i < m.n; i++ {
		if m.bound(q, i)+boundMargin < best {
			filtered++
			continue
		}
		passed++
		rows[pending] = i
		if pending++; pending < len(rows) {
			continue
		}
		pending = 0
		for k, c := range m.cosine4(q, &rows) {
			if c > best {
				best, bestI = c, rows[k]
			}
		}
	}
	for _, i := range rows[:pending] {
		if c := m.Cosine(q, i); c > best {
			best, bestI = c, i
		}
	}
	addSweepStats(filtered, passed)
	return bestI, best
}

// Max returns the maximum cosine over all rows, at least init (headFit-style
// sweep starting from init).
func (m *Matrix) Max(q *Query, init float64) float64 {
	_, best := m.ArgMax(q, init)
	return best
}

// PrefixMaxFloor fills dst[i-lo] with the maximum cosine between q and rows
// lo..i (inclusive) for every i in [lo, hi), with the running maximum started
// at floor — the prefix-maximum sweep backing the matcher's cross-τ fit
// profiles. Prefix maxima above floor equal the sequential Cosine sweep's
// exactly (the bound only skips rows that provably cannot raise the running
// maximum, and the maximum of a set is order-independent); prefixes whose
// true maximum does not exceed floor come back as floor itself, which is what
// lets the bound skip nearly every sub-floor row. dst must have
// length hi-lo.
func (m *Matrix) PrefixMaxFloor(q *Query, lo, hi int, floor float64, dst []float64) {
	if q.nv == 0 {
		// Every cosine is 0, matching CosineAt's zero-vector convention; the
		// running maximum still starts at floor.
		v := floor
		if 0 > v {
			v = 0
		}
		for i := range dst {
			dst[i] = v
		}
		return
	}
	run := floor
	var filtered, passed uint64
	for i := lo; i < hi; i++ {
		if m.bound(q, i)+boundMargin < run {
			filtered++
		} else {
			passed++
			if c := m.Cosine(q, i); c > run {
				run = c
			}
		}
		dst[i-lo] = run
	}
	addSweepStats(filtered, passed)
}

// EachAtLeast calls f(i, sim) for every row whose cosine reaches tau, in row
// order, using the sketch bound to skip rows that provably fall short. The
// set and similarities reported are exactly those of a full sweep. Rows that
// pass the bound are scored four at a time by cosine4; tau is fixed, so the
// buffering changes neither which rows pass nor the order f sees them in.
func (m *Matrix) EachAtLeast(q *Query, tau float64, f func(i int, sim float64)) {
	if q.nv == 0 {
		if tau > 0 {
			return
		}
		for i := 0; i < m.n; i++ {
			f(i, 0)
		}
		return
	}
	var filtered, passed uint64
	var rows [4]int
	pending := 0
	for i := 0; i < m.n; i++ {
		if m.bound(q, i)+boundMargin < tau {
			filtered++
			continue
		}
		passed++
		rows[pending] = i
		if pending++; pending < len(rows) {
			continue
		}
		pending = 0
		for k, c := range m.cosine4(q, &rows) {
			if c >= tau {
				f(rows[k], c)
			}
		}
	}
	for _, i := range rows[:pending] {
		if c := m.Cosine(q, i); c >= tau {
			f(i, c)
		}
	}
	addSweepStats(filtered, passed)
}
