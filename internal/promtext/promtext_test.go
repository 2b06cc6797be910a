package promtext

import (
	"strings"
	"testing"
)

func parseOne(t *testing.T, payload string) *Exposition {
	t.Helper()
	exp, err := Parse(strings.NewReader(payload))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return exp
}

// TestParseEscapedLabelValues covers the escape forms the format allows in
// label values: \" \\ and \n.
func TestParseEscapedLabelValues(t *testing.T) {
	exp := parseOne(t, `# TYPE m counter
m_total{q="say \"hi\"",p="a\\b",nl="line1\nline2"} 3
# EOF
`)
	s := exp.Family("m").Samples[0]
	if got := s.Label("q"); got != `say "hi"` {
		t.Errorf("escaped quote label = %q", got)
	}
	if got := s.Label("p"); got != `a\b` {
		t.Errorf("escaped backslash label = %q", got)
	}
	if got := s.Label("nl"); got != "line1\nline2" {
		t.Errorf("escaped newline label = %q", got)
	}
}

func TestParseRejectsBadEscapes(t *testing.T) {
	for _, payload := range []string{
		"m{a=\"bad \\t escape\"} 1\n",
		"m{a=\"dangling \\\n",
		"m{a=\"unterminated} 1\n",
		"m{a=unquoted} 1\n",
		"m{a=\"x\",a=\"y\"} 1\n", // duplicate label
	} {
		if _, err := Parse(strings.NewReader(payload)); err == nil {
			t.Errorf("Parse accepted %q", payload)
		}
	}
}

// TestParseEmptyHelp covers HELP lines with no text: "# HELP name" is legal
// and leaves Help empty rather than erroring or mis-splitting.
func TestParseEmptyHelp(t *testing.T) {
	exp := parseOne(t, `# HELP m
# TYPE m gauge
m 1
# EOF
`)
	f := exp.Family("m")
	if f == nil || f.Help != "" || f.Type != "gauge" {
		t.Fatalf("empty HELP mishandled: %+v", f)
	}
	if probs := Lint(exp); len(probs) > 0 {
		t.Fatalf("empty HELP should lint clean: %v", probs)
	}
	// HELP with text still round-trips.
	exp = parseOne(t, "# HELP m queue depth right now\n# TYPE m gauge\nm 1\n# EOF\n")
	if got := exp.Family("m").Help; got != "queue depth right now" {
		t.Fatalf("HELP text = %q", got)
	}
	// A malformed HELP line (no metric name) errors.
	if _, err := Parse(strings.NewReader("# HELP\n")); err == nil {
		t.Fatal("bare # HELP accepted")
	}
}

// TestParseExemplarAccept is the accept table for the exemplar clause.
func TestParseExemplarAccept(t *testing.T) {
	cases := []struct {
		name   string
		line   string
		labels map[string]string
		value  float64
		ts     float64
		hasTS  bool
	}{
		{
			name:   "bucket with trace and timestamp",
			line:   `m_bucket{le="0.01"} 5 # {trace_id="abc123"} 0.003 1700000000.123`,
			labels: map[string]string{"trace_id": "abc123"},
			value:  0.003, ts: 1700000000.123, hasTS: true,
		},
		{
			name:   "no timestamp",
			line:   `m_bucket{le="+Inf"} 5 # {trace_id="ff"} 1.5`,
			labels: map[string]string{"trace_id": "ff"},
			value:  1.5,
		},
		{
			name:   "empty label set",
			line:   `m_bucket{le="1"} 2 # {} 0.5`,
			labels: map[string]string{},
			value:  0.5,
		},
		{
			name:   "sample timestamp then exemplar",
			line:   `m_bucket{le="1"} 2 1700000001 # {trace_id="aa"} 0.25`,
			labels: map[string]string{"trace_id": "aa"},
			value:  0.25,
		},
		{
			name:   "escaped hash inside label value",
			line:   `m_bucket{le="1",note="a # b"} 2 # {trace_id="aa"} 0.25`,
			labels: map[string]string{"trace_id": "aa"},
			value:  0.25,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			payload := "# TYPE m histogram\n" + c.line + "\n# EOF\n"
			exp := parseOne(t, payload)
			s := exp.Family("m").Samples[0]
			if s.Exemplar == nil {
				t.Fatal("no exemplar parsed")
			}
			if s.Exemplar.Value != c.value {
				t.Errorf("value = %g, want %g", s.Exemplar.Value, c.value)
			}
			if s.Exemplar.HasTimestamp != c.hasTS || (c.hasTS && s.Exemplar.Timestamp != c.ts) {
				t.Errorf("timestamp = (%v, %g), want (%v, %g)",
					s.Exemplar.HasTimestamp, s.Exemplar.Timestamp, c.hasTS, c.ts)
			}
			for k, v := range c.labels {
				if s.Exemplar.Labels[k] != v {
					t.Errorf("label %s = %q, want %q", k, s.Exemplar.Labels[k], v)
				}
			}
		})
	}
}

// TestParseExemplarReject is the reject table: malformed exemplar clauses
// are errors, not skips.
func TestParseExemplarReject(t *testing.T) {
	cases := []struct {
		name string
		line string
	}{
		{"missing label block", `m_bucket{le="1"} 2 # 0.5`},
		{"missing value", `m_bucket{le="1"} 2 # {trace_id="aa"}`},
		{"bad value", `m_bucket{le="1"} 2 # {trace_id="aa"} abc`},
		{"bad timestamp", `m_bucket{le="1"} 2 # {trace_id="aa"} 0.5 xyz`},
		{"trailing fields", `m_bucket{le="1"} 2 # {trace_id="aa"} 0.5 1.0 extra`},
		{"unterminated labels", `m_bucket{le="1"} 2 # {trace_id="aa 0.5`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			payload := "# TYPE m histogram\n" + c.line + "\n# EOF\n"
			if _, err := Parse(strings.NewReader(payload)); err == nil {
				t.Errorf("Parse accepted %q", c.line)
			}
		})
	}
}

// lintPayload parses and lints, returning the joined findings.
func lintPayload(t *testing.T, payload string) []Problem {
	t.Helper()
	exp, err := Parse(strings.NewReader(payload))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return Lint(exp)
}

func hasProblem(probs []Problem, substr string) bool {
	for _, p := range probs {
		if strings.Contains(p.String(), substr) {
			return true
		}
	}
	return false
}

// TestLintExemplarAccept: well-placed exemplars lint clean.
func TestLintExemplarAccept(t *testing.T) {
	clean := `# TYPE h histogram
h_bucket{le="0.01"} 1 # {trace_id="abc"} 0.003
h_bucket{le="+Inf"} 1
h_sum 0.003
h_count 1
# TYPE c counter
c_total 5 # {trace_id="def"} 1
# EOF
`
	if probs := lintPayload(t, clean); len(probs) > 0 {
		t.Fatalf("clean exemplars flagged: %v", probs)
	}
}

// TestLintExemplarReject: misplaced, oversized and out-of-bucket exemplars
// are flagged.
func TestLintExemplarReject(t *testing.T) {
	cases := []struct {
		name    string
		payload string
		want    string
	}{
		{
			"exemplar on gauge",
			"# TYPE g gauge\ng 1 # {trace_id=\"a\"} 1\n# EOF\n",
			"allowed only on",
		},
		{
			"exemplar on histogram _sum",
			"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1 # {trace_id=\"a\"} 1\nh_count 1\n# EOF\n",
			"allowed only on",
		},
		{
			"invalid exemplar label name",
			"# TYPE c counter\nc_total 1 # {__bad=\"a\"} 1\n# EOF\n",
			"invalid exemplar label name",
		},
		{
			"label set over 128 runes",
			"# TYPE c counter\nc_total 1 # {trace_id=\"" + strings.Repeat("x", 130) + "\"} 1\n# EOF\n",
			"exceeds 128 runes",
		},
		{
			"bucket exemplar above le",
			"# TYPE h histogram\nh_bucket{le=\"0.01\"} 1 # {trace_id=\"a\"} 5.0\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n# EOF\n",
			"exceeds bucket le",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			probs := lintPayload(t, c.payload)
			if !hasProblem(probs, c.want) {
				t.Errorf("lint missed %q: %v", c.want, probs)
			}
		})
	}
}
