package embed

import (
	"fmt"
	"math"
)

// Dim is the dimensionality of all vectors in a Space. 256 dimensions keep
// random cross-terms small (≈1/16 standard deviation per pair), so cluster
// geometry — not noise extremes — decides similarity thresholds.
const Dim = 256

// Vector is a fixed-dimension embedding.
type Vector [Dim]float32

// Zero reports whether the vector has no magnitude.
func (v Vector) Zero() bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// Norm returns the Euclidean length of the vector.
func (v Vector) Norm() float64 {
	var s float64
	for _, x := range v {
		s += float64(x) * float64(x)
	}
	return math.Sqrt(s)
}

// Normalize returns the unit vector in the direction of v. The zero vector
// normalizes to itself.
func (v Vector) Normalize() Vector {
	n := v.Norm()
	if n == 0 {
		return v
	}
	var out Vector
	for i, x := range v {
		out[i] = float32(float64(x) / n)
	}
	return out
}

// Add returns v + w.
func (v Vector) Add(w Vector) Vector {
	var out Vector
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Scale returns v scaled by a.
func (v Vector) Scale(a float64) Vector {
	var out Vector
	for i, x := range v {
		out[i] = float32(float64(x) * a)
	}
	return out
}

// Cosine returns the cosine similarity of v and w in [-1, 1]. If either
// vector is zero the similarity is defined as 0.
func Cosine(v, w Vector) float64 { return CosineAt(&v, &w) }

// CosineAt is the pointer form of Cosine for hot loops: it avoids copying
// the (large) vector values at every call.
func CosineAt(v, w *Vector) float64 {
	var dot, nv, nw float64
	for i := 0; i < Dim; i++ {
		a, b := float64(v[i]), float64(w[i])
		dot += a * b
		nv += a * a
		nw += b * b
	}
	if nv == 0 || nw == 0 {
		return 0
	}
	c := dot / math.Sqrt(nv*nw)
	// Guard against floating-point drift outside [-1, 1].
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return c
}

// Blend returns the unit vector alpha*base + (1-alpha)*noise. It is how the
// dataset generator places a vocabulary word near its concept centroid:
// higher alpha means a tighter cluster.
func Blend(base, noise Vector, alpha float64) Vector {
	return base.Scale(alpha).Add(noise.Scale(1 - alpha)).Normalize()
}

// String renders a short prefix of the vector for debugging.
func (v Vector) String() string {
	return fmt.Sprintf("[%.3f %.3f %.3f ...]", v[0], v[1], v[2])
}
