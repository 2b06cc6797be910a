package embed

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestHashVectorDeterministic(t *testing.T) {
	a, b := HashVector("tumor"), HashVector("tumor")
	if a != b {
		t.Error("HashVector not deterministic")
	}
	c := HashVector("lungs")
	if a == c {
		t.Error("distinct words hashed to identical vectors")
	}
}

func TestHashVectorUnit(t *testing.T) {
	for _, w := range []string{"a", "tumor", "acoustic neuroma", ""} {
		n := HashVector(w).Norm()
		if math.Abs(n-1) > 1e-5 {
			t.Errorf("HashVector(%q).Norm() = %v, want 1", w, n)
		}
	}
}

func TestHashVectorNearOrthogonal(t *testing.T) {
	// Random unrelated words should have low |cosine|.
	words := []string{"alpha", "brick", "cloud", "delta", "ember", "frost"}
	for i := 0; i < len(words); i++ {
		for j := i + 1; j < len(words); j++ {
			c := Cosine(HashVector(words[i]), HashVector(words[j]))
			if math.Abs(c) > 0.5 {
				t.Errorf("cosine(%q,%q) = %v, expected near-orthogonal", words[i], words[j], c)
			}
		}
	}
}

func TestSubwordVectorMorphology(t *testing.T) {
	related := Cosine(SubwordVector("cancer"), SubwordVector("cancerous"))
	unrelated := Cosine(SubwordVector("cancer"), SubwordVector("keyboard"))
	if related <= unrelated {
		t.Errorf("subword similarity: related=%v should exceed unrelated=%v", related, unrelated)
	}
	if related < 0.3 {
		t.Errorf("morphologically related words too dissimilar: %v", related)
	}
}

func TestSubwordVectorEmptyAndShort(t *testing.T) {
	if !SubwordVector("").Zero() {
		t.Error("empty word should embed to zero")
	}
	if SubwordVector("a").Zero() {
		t.Error("single-letter word should still embed (padded trigram)")
	}
}

func TestCosineBounds(t *testing.T) {
	v := HashVector("x")
	if c := Cosine(v, v); math.Abs(c-1) > 1e-9 {
		t.Errorf("self-cosine = %v", c)
	}
	if c := Cosine(v, v.Scale(-1)); math.Abs(c+1) > 1e-9 {
		t.Errorf("anti-cosine = %v", c)
	}
	if c := Cosine(v, Vector{}); c != 0 {
		t.Errorf("cosine with zero vector = %v, want 0", c)
	}
}

func TestBlendTightness(t *testing.T) {
	base := HashVector("centroid")
	n1, n2 := HashVector("noise-1"), HashVector("noise-2")
	tight1, tight2 := Blend(base, n1, 0.9), Blend(base, n2, 0.9)
	loose1, loose2 := Blend(base, n1, 0.3), Blend(base, n2, 0.3)
	if Cosine(tight1, tight2) <= Cosine(loose1, loose2) {
		t.Error("higher alpha should yield tighter clusters")
	}
	if Cosine(tight1, base) < 0.8 {
		t.Errorf("tight member too far from centroid: %v", Cosine(tight1, base))
	}
}

func TestSpaceLookupAndFallback(t *testing.T) {
	s := NewSpace()
	v := HashVector("seed")
	s.Add("Brain", v)
	if got := s.Lookup("brain"); got != v {
		t.Error("Lookup should be case-insensitive")
	}
	if s.Lookup("unknownword").Zero() {
		t.Error("OOV lookup should use subword fallback")
	}
}

func TestPhraseVectorMean(t *testing.T) {
	s := NewSpace()
	a, b := HashVector("a-vec"), HashVector("b-vec")
	s.Add("brain", a)
	s.Add("tumor", b)
	pv := s.PhraseVector([]string{"brain", "tumor"})
	want := a.Add(b).Normalize()
	if Cosine(pv, want) < 0.999 {
		t.Errorf("phrase vector not the normalized mean: cos=%v", Cosine(pv, want))
	}
	if !s.PhraseVector(nil).Zero() {
		t.Error("empty phrase should embed to zero")
	}
}

func TestNeighborsThresholdAndOrder(t *testing.T) {
	s := NewSpace()
	center := HashVector("center")
	s.Add("near1", Blend(center, HashVector("n1"), 0.95))
	s.Add("near2", Blend(center, HashVector("n2"), 0.9))
	s.Add("far", HashVector("totally-unrelated"))
	ns := s.Neighbors(center, 0.5)
	if len(ns) != 2 {
		t.Fatalf("got %d neighbors, want 2: %v", len(ns), ns)
	}
	if ns[0].Sim < ns[1].Sim {
		t.Error("neighbors not sorted by decreasing similarity")
	}
	if all := s.Neighbors(center, -1); len(all) != 3 {
		t.Errorf("tau=-1 should return whole vocabulary, got %d", len(all))
	}
}

func TestSpaceWordsSorted(t *testing.T) {
	s := NewSpace()
	for _, w := range []string{"zeta", "alpha", "mid"} {
		s.Add(w, HashVector(w))
	}
	got := s.Words()
	if len(got) != 3 || got[0] != "alpha" || got[2] != "zeta" {
		t.Errorf("Words() = %v", got)
	}
}

// Property: Normalize yields unit length (or zero), and cosine is symmetric
// and bounded.
func TestVectorProperties(t *testing.T) {
	f := func(a, b string) bool {
		va, vb := HashVector(a), HashVector(b)
		c1, c2 := Cosine(va, vb), Cosine(vb, va)
		if math.Abs(c1-c2) > 1e-9 {
			return false
		}
		if c1 < -1 || c1 > 1 {
			return false
		}
		n := va.Add(vb).Normalize().Norm()
		return n == 0 || math.Abs(n-1) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: SubwordVector is deterministic and unit-length for non-empty
// words.
func TestSubwordVectorProperty(t *testing.T) {
	f := func(w string) bool {
		v1, v2 := SubwordVector(w), SubwordVector(w)
		if v1 != v2 {
			return false
		}
		if w == "" {
			return v1.Zero()
		}
		return math.Abs(v1.Norm()-1) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLookupStemFallback(t *testing.T) {
	s := NewSpace()
	v := HashVector("cancer-vec")
	s.Add("cancer", v)
	// 'cancers' is OOV but stems to 'cancer': it must resolve to the stored
	// vector rather than a subword hash.
	if got := s.Lookup("cancers"); got != v {
		t.Errorf("stem fallback failed: cos=%v", Cosine(got, v))
	}
	// Unrelated OOV words still take the subword path.
	if got := s.Lookup("keyboarding"); got == v || got.Zero() {
		t.Error("unrelated OOV should use subword hashing")
	}
	// Adding a word invalidates the index.
	v2 := HashVector("scar-vec")
	s.Add("scar", v2)
	if got := s.Lookup("scarring"); got != v2 {
		t.Error("stem index not rebuilt after Add")
	}
}

func TestSpaceRoundTrip(t *testing.T) {
	s := NewSpace()
	for _, w := range []string{"alpha", "beta", "gamma"} {
		s.Add(w, HashVector(w))
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() {
		t.Fatalf("round trip lost words: %d vs %d", got.Len(), s.Len())
	}
	for _, w := range s.Words() {
		if got.Lookup(w) != s.Lookup(w) {
			t.Errorf("vector for %q changed", w)
		}
	}
	// Byte-identical determinism.
	var buf2 bytes.Buffer
	if _, err := s.WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("serialization is not deterministic")
	}
}

func TestReadSpaceErrors(t *testing.T) {
	if _, err := ReadSpace(strings.NewReader("NOTAVEC1")); err == nil {
		t.Error("bad magic should error")
	}
	if _, err := ReadSpace(strings.NewReader("")); err == nil {
		t.Error("empty input should error")
	}
	// Truncated file: header promises one word but body is missing.
	var buf bytes.Buffer
	s := NewSpace()
	s.Add("word", HashVector("word"))
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-10]
	if _, err := ReadSpace(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated file should error")
	}
}
