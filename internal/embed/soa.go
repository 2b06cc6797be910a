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
//
// Each accepted direction deflates the residuals on every core, four rows
// per pass, and the same pass refreshes each row's residual norm² for the
// next pick. Every row keeps its own accumulators over ascending
// components, so the basis is bit-identical to deflating one row at a time
// and recomputing every norm² before each pick.
func NewBasis(vs []Vector) *Basis {
	b := &Basis{}
	if len(vs) == 0 {
		return b
	}
	// Unit-normalized float64 residuals and their squared norms.
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
	norms := make([]float64, len(resid))
	for i := range resid {
		norms[i] = sqNorm(&resid[i])
	}
	for len(b.dirs) < SketchDim {
		// Pick the vector with the largest residual norm².
		bestI, bestN := -1, 0.0
		for i, n := range norms {
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
		n := sqNorm(&dir)
		if n < 1e-12 {
			break
		}
		inv = 1 / math.Sqrt(n)
		for j := range dir {
			dir[j] *= inv
		}
		b.dirs = append(b.dirs, dir)
		if len(b.dirs) == SketchDim {
			break // no further pick reads the residuals
		}
		par.For((len(resid)+3)/4, func(g int) { deflate4(resid, norms, 4*g, &dir) })
	}
	return b
}

// sqNorm returns the squared norm of r, summed over ascending components.
func sqNorm(r *[Dim]float64) float64 {
	n := 0.0
	for j := range r {
		n += r[j] * r[j]
	}
	return n
}

// deflate4 removes the dir component from residual rows lo..lo+3 (fewer at
// the end of the slice) and stores each row's new squared norm. A row's dot
// product, update and norm² each run over ascending components, as for a
// lone row; the four rows only interleave their independent chains.
func deflate4(resid [][Dim]float64, norms []float64, lo int, dir *[Dim]float64) {
	if lo+4 > len(resid) {
		for i := lo; i < len(resid); i++ {
			r := &resid[i]
			dot := 0.0
			for j := range r {
				dot += r[j] * dir[j]
			}
			n := 0.0
			for j := range r {
				r[j] -= dot * dir[j]
				n += r[j] * r[j]
			}
			norms[i] = n
		}
		return
	}
	r0, r1, r2, r3 := &resid[lo], &resid[lo+1], &resid[lo+2], &resid[lo+3]
	var d0, d1, d2, d3 float64
	for j := 0; j < Dim; j++ {
		x := dir[j]
		d0 += r0[j] * x
		d1 += r1[j] * x
		d2 += r2[j] * x
		d3 += r3[j] * x
	}
	var n0, n1, n2, n3 float64
	for j := 0; j < Dim; j++ {
		x := dir[j]
		r0[j] -= d0 * x
		r1[j] -= d1 * x
		r2[j] -= d2 * x
		r3[j] -= d3 * x
		n0 += r0[j] * r0[j]
		n1 += r1[j] * r1[j]
		n2 += r2[j] * r2[j]
		n3 += r3[j] * r3[j]
	}
	norms[lo], norms[lo+1], norms[lo+2], norms[lo+3] = n0, n1, n2, n3
}

// sketch computes the basis coordinates and off-span residual norm of the
// unit direction of v. comps must hold v converted to float64 and nv its
// CosineAt-style squared norm. It scores four directions per pass over
// comps; each direction keeps its own accumulator over ascending
// components, so every coordinate equals a lone dot product bit for bit,
// and the coordinates then fold into the residual in direction order.
func (b *Basis) sketch(comps []float64, nv float64, sk []float64) (resid float64) {
	if nv == 0 {
		for t := range sk {
			sk[t] = 0
		}
		return 0
	}
	comps = comps[:Dim]
	nd := len(b.dirs)
	t := 0
	for ; t+4 <= nd; t += 4 {
		d0, d1, d2, d3 := &b.dirs[t], &b.dirs[t+1], &b.dirs[t+2], &b.dirs[t+3]
		var s0, s1, s2, s3 float64
		for j := 0; j < Dim; j++ {
			x := comps[j]
			s0 += x * d0[j]
			s1 += x * d1[j]
			s2 += x * d2[j]
			s3 += x * d3[j]
		}
		sk[t], sk[t+1], sk[t+2], sk[t+3] = s0, s1, s2, s3
	}
	for ; t < nd; t++ {
		dot := 0.0
		d := &b.dirs[t]
		for j := 0; j < Dim; j++ {
			dot += comps[j] * d[j]
		}
		sk[t] = dot
	}
	inv := 1 / math.Sqrt(nv)
	rem := 1.0
	for t := 0; t < nd; t++ {
		dot := sk[t] * inv
		sk[t] = dot
		rem -= dot * dot
	}
	for t := nd; t < len(sk); t++ {
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

// Query precomputes the sweep view of *v under the basis.
func (b *Basis) Query(v *Vector) Query {
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

// bounds fills ub with bound(q, i) for rows i, i+1, ... below end, at most
// four, and returns how many it filled. A full group of four runs as four
// interleaved chains, each accumulating in bound's order, so every value
// equals bound's bit for bit and the sweeps' skip decisions do not change.
func (m *Matrix) bounds(q *Query, i, end int, ub *[4]float64) int {
	if end-i < 4 {
		for k := i; k < end; k++ {
			ub[k-i] = m.bound(q, k)
		}
		return end - i
	}
	s0 := m.sk[i*SketchDim:][:SketchDim]
	s1 := m.sk[(i+1)*SketchDim:][:SketchDim]
	s2 := m.sk[(i+2)*SketchDim:][:SketchDim]
	s3 := m.sk[(i+3)*SketchDim:][:SketchDim]
	r := m.resid[i:][:4]
	u0, u1, u2, u3 := q.resid*r[0], q.resid*r[1], q.resid*r[2], q.resid*r[3]
	for t := 0; t < SketchDim; t++ {
		x := q.sk[t]
		u0 += x * s0[t]
		u1 += x * s1[t]
		u2 += x * s2[t]
		u3 += x * s3[t]
	}
	ub[0], ub[1], ub[2], ub[3] = u0, u1, u2, u3
	return 4
}

// ArgMax returns the index and similarity of the first row whose cosine
// attains the maximum among rows with cosine strictly greater than init
// (-1 if no row exceeds init). It reproduces the sequential
// "if sim > best { best = sim }" sweep exactly — including which index wins
// on ties — while using the sketch bound to skip rows that provably cannot
// exceed the running best.
//
// Bounds come four rows at a time from bounds, and each is tested in row
// order against the best as it stands, exactly as a one-row loop would.
// Rows that pass are buffered and scored four at a time by cosine4, then
// folded into the running best in row order. A row is tested against the
// best as of the last fold, which is never above the true running best, so
// the bound still skips only rows that cannot win.
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
	var ub [4]float64
	pending := 0
	for lo := 0; lo < m.n; lo += 4 {
		for k, n := 0, m.bounds(q, lo, m.n, &ub); k < n; k++ {
			if ub[k]+boundMargin < best {
				filtered++
				continue
			}
			passed++
			rows[pending] = lo + k
			if pending++; pending < len(rows) {
				continue
			}
			pending = 0
			for r, c := range m.cosine4(q, &rows) {
				if c > best {
					best, bestI = c, rows[r]
				}
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

// Rise is one change point of a prefix-maximum sweep: the running maximum
// first reaches Max at row Row.
type Rise struct {
	// Row is the row at which the running maximum rises.
	Row int
	// Max is the cosine it rises to.
	Max float64
}

// PrefixMaxRises sweeps the rows in order, keeping the running maximum
// cosine between q and rows 0..i started at floor, and appends to dst every
// row where that maximum rises, with the value it rises to — the change-point
// form behind the matcher's cross-τ fit profiles. The prefix maximum through
// row i is the Max of the last rise at or before i, or floor when there is
// none. Rises above floor carry the sequential Cosine sweep's values exactly
// (the bound only skips rows that provably cannot raise the running maximum,
// and the maximum of a set is order-independent); rows whose cosine does not
// exceed the running maximum never rise, which is what lets the bound skip
// nearly every sub-floor row. Bounds come four rows at a time from bounds
// and meet the running maximum in row order, as in a one-row loop.
func (m *Matrix) PrefixMaxRises(q *Query, floor float64, dst []Rise) []Rise {
	if q.nv == 0 {
		// Every cosine is 0, matching CosineAt's zero-vector convention: the
		// maximum rises at row 0 if the floor is below 0, and never after.
		if floor < 0 && m.n > 0 {
			dst = append(dst, Rise{Row: 0, Max: 0})
		}
		return dst
	}
	run := floor
	var filtered, passed uint64
	var ub [4]float64
	for g := 0; g < m.n; g += 4 {
		for k, n := 0, m.bounds(q, g, m.n, &ub); k < n; k++ {
			if ub[k]+boundMargin < run {
				filtered++
				continue
			}
			passed++
			if c := m.Cosine(q, g+k); c > run {
				run = c
				dst = append(dst, Rise{Row: g + k, Max: c})
			}
		}
	}
	addSweepStats(filtered, passed)
	return dst
}

// EachAtLeast calls f(i, sim) for every row whose cosine reaches tau, in row
// order, using the sketch bound to skip rows that provably fall short. The
// set and similarities reported are exactly those of a full sweep. Bounds
// come four rows at a time from bounds, and rows that pass are scored four
// at a time by cosine4; tau is fixed, so the grouping changes neither which
// rows pass nor the order f sees them in.
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
	var ub [4]float64
	pending := 0
	for lo := 0; lo < m.n; lo += 4 {
		for k, n := 0, m.bounds(q, lo, m.n, &ub); k < n; k++ {
			if ub[k]+boundMargin < tau {
				filtered++
				continue
			}
			passed++
			rows[pending] = lo + k
			if pending++; pending < len(rows) {
				continue
			}
			pending = 0
			for r, c := range m.cosine4(q, &rows) {
				if c >= tau {
					f(rows[r], c)
				}
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
