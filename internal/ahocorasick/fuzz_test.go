package ahocorasick

import (
	"strings"
	"testing"
)

// FuzzAutomaton feeds the automaton arbitrary pattern sets and texts. The
// first operand is a newline-separated pattern blob (capped to keep build
// cost bounded); the second is the text to search. It pins the two
// invariants the Unicode-lowering bug violated (match spans must be valid
// byte ranges of the original text, and the span must actually equal the
// pattern under ASCII folding) — the Kelvin-sign seed below is the original
// crasher.
func FuzzAutomaton(f *testing.F) {
	f.Add("acoustic neuroma\ntumor\ntuberculosis", "An Acoustic Neuroma is a non-cancerous TUMOR.")
	f.Add("kk", "KK")                    // Kelvin sign 'K': ToLower changed byte length
	f.Add("i̇", "İstanbul")              // dotted capital I: same class of bug
	f.Add("a\nab\nabc\nbc", "abcabcabc") // overlapping matches through failure links
	f.Add("", "anything")
	f.Add("\xff\n\xff\xfe", "\xff\xfe\xff")
	f.Fuzz(func(t *testing.T, patBlob, text string) {
		if len(text) > 1<<12 {
			t.Skip()
		}
		patterns := strings.Split(patBlob, "\n")
		if len(patterns) > 16 {
			patterns = patterns[:16]
		}
		for i, p := range patterns {
			if len(p) > 64 {
				patterns[i] = p[:64]
			}
		}
		a := NewAutomaton(patterns)
		all := a.FindAll(text)
		for _, m := range all {
			if m.Pattern < 0 || m.Pattern >= len(patterns) {
				t.Fatalf("match names pattern %d of %d", m.Pattern, len(patterns))
			}
			if m.Start < 0 || m.End > len(text) || m.Start >= m.End {
				t.Fatalf("match span [%d,%d) invalid in %d-byte text", m.Start, m.End, len(text))
			}
			span := text[m.Start:m.End]
			if lowerASCII(span) != lowerASCII(a.Pattern(m.Pattern)) {
				t.Fatalf("span %q does not match pattern %q under ASCII folding", span, a.Pattern(m.Pattern))
			}
		}
		// Whole-word matches are a filter over FindAll: same spans, subset.
		seen := map[Match]bool{}
		for _, m := range all {
			seen[m] = true
		}
		for _, m := range a.FindWholeWords(text) {
			if !seen[m] {
				t.Fatalf("FindWholeWords produced %+v absent from FindAll", m)
			}
		}
	})
}
