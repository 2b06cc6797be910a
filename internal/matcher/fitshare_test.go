package matcher

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"thor/internal/datagen"
	"thor/internal/embed"
)

// TestFitProfileChangePointsMatchDense is the property test of the
// change-point fit profile: over generated heads, the fit a concept's
// fitShare answers at every cut must equal, bit for bit, the dense profile
// built by scoring every row — the larger of the floor-clamped seed-head
// maximum and the floor-clamped prefix maximum through row cut-1. The heads
// are vocabulary words, the expansion words themselves and expansion words
// blended with noise, so the sweep crosses the acceptance floor at many
// rows.
func TestFitProfileChangePointsMatchDense(t *testing.T) {
	ds := datagen.Disease(datagen.DiseaseSeed)
	m, err := FineTune(ds.Space, ds.Table, Config{Tau: 0.5, IncludeSubject: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	words := ds.Space.Words()
	floor := math.Nextafter(acceptFloorBar, 0)
	rises := 0
	for _, cl := range m.clusters {
		sh := cl.share
		var heads []embed.Vector
		for i := 0; i < 20; i++ {
			heads = append(heads, ds.Space.Lookup(words[rng.Intn(len(words))]))
		}
		for _, r := range cl.words {
			if r.Seed || rng.Intn(4) != 0 {
				continue
			}
			alpha := []float64{1, 0.99, 0.97, 0.95, 0.9}[rng.Intn(5)]
			heads = append(heads, embed.Blend(r.Vector, embed.HashVector(fmt.Sprint("fit-noise-", rng.Int())), alpha))
		}
		n := sh.expMat.Len()
		dense := make([]float64, n+1)
		for hi := range heads {
			v := heads[hi]
			if v.Zero() {
				continue
			}
			q := m.basis.Query(&v)
			seed := floor
			for i := 0; i < sh.headMat.Len(); i++ {
				if c := sh.headMat.Cosine(&q, i); c > seed {
					seed = c
				}
			}
			dense[0] = floor
			for i := 0; i < n; i++ {
				dense[i+1] = dense[i]
				if c := sh.expMat.Cosine(&q, i); c > dense[i+1] {
					dense[i+1] = c
				}
			}
			head := fmt.Sprintf("generated-%s-%d", cl.concept, hi)
			hq := headQuery{basis: m.basis, v: &v}
			for cut := 0; cut <= n; cut++ {
				want := seed
				if dense[cut] > want {
					want = dense[cut]
				}
				if got := sh.fit(head, &hq, cut); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s head %d cut %d/%d: fit %v, dense profile %v", cl.concept, hi, cut, n, got, want)
				}
			}
			p, _ := sh.prof.Get(head)
			rises += len(p.rises)
		}
	}
	t.Logf("%d change points over the generated heads", rises)
	if rises == 0 {
		t.Fatal("no generated head rose above the floor; the change points are untested")
	}
}
