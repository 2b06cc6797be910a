package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// LabeledName builds the canonical labeled instrument name the OpenMetrics
// exposition understands: family{k1="v1",k2="v2"}. Instruments registered
// under such a name are grouped into one metric family per base name, with
// each label set becoming one series. Pairs are key, value, key, value …;
// a trailing odd key is ignored. With no pairs the family name is returned
// unchanged.
func LabeledName(family string, kv ...string) string {
	if len(kv) < 2 {
		return family
	}
	var b strings.Builder
	b.WriteString(family)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(kv[i+1]))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// splitLabeled splits a (possibly) labeled instrument name into its family
// and the raw label text between the braces ("" when unlabeled).
func splitLabeled(name string) (family, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// escapeLabelValue escapes a label value per the exposition format.
func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// sanitizeMetricName maps an instrument family to a legal metric name:
// dots (the registry's namespace separator) become underscores, as does any
// other character outside [a-zA-Z0-9_:]; a leading digit gains a '_' prefix.
func sanitizeMetricName(name string) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// omSample is one exposition line within a family: an optional magic suffix
// (_total, _bucket, _sum, _count, …), a label block, a value and an optional
// exemplar.
type omSample struct {
	suffix   string
	labels   string // rendered label pairs, no braces; "" when unlabeled
	value    float64
	exemplar string // rendered " # {labels} value ts" suffix; "" when absent
}

// renderExemplar renders an exemplar in OpenMetrics syntax for attachment
// after a sample value: " # {trace_id=\"…\"} <value> <unix seconds>".
func renderExemplar(ex *Exemplar) string {
	if ex == nil || ex.TraceID == "" {
		return ""
	}
	ts := strconv.FormatFloat(float64(ex.Time.UnixNano())/1e9, 'f', 3, 64)
	return ` # {trace_id="` + escapeLabelValue(ex.TraceID) + `"} ` +
		formatValue(ex.ValueSeconds) + " " + ts
}

// omFamily is one metric family to render: a TYPE line plus its samples.
type omFamily struct {
	name    string // sanitized family name, without magic suffixes
	typ     string // counter | gauge | histogram | summary
	help    string
	samples []omSample
}

// joinLabels merges two rendered label blocks.
func joinLabels(a, b string) string {
	switch {
	case a == "":
		return b
	case b == "":
		return a
	default:
		return a + "," + b
	}
}

// formatValue renders a sample value: shortest round-trip float, with the
// exposition spellings of the infinities.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// familySet accumulates families keyed by (name, type) so labeled series of
// the same base name merge into one family.
type familySet struct {
	byName map[string]*omFamily
}

func newFamilySet() *familySet {
	return &familySet{byName: make(map[string]*omFamily)}
}

// add appends one sample to its family, creating the family on first use.
// A name collision across different types keeps the first type and drops
// the conflicting sample — malformed output would fail the scrape linter.
func (fs *familySet) add(name, typ, help string, s omSample) {
	f := fs.byName[name]
	if f == nil {
		f = &omFamily{name: name, typ: typ, help: help}
		fs.byName[name] = f
	}
	if f.typ != typ {
		return
	}
	f.samples = append(f.samples, s)
}

// write renders every family in name order.
func (fs *familySet) write(w io.Writer) error {
	names := make([]string, 0, len(fs.byName))
	for n := range fs.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := fs.byName[n]
		if len(f.samples) == 0 {
			continue
		}
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.samples {
			line := f.name + s.suffix
			if s.labels != "" {
				line += "{" + s.labels + "}"
			}
			if _, err := fmt.Fprintf(w, "%s %s%s\n", line, formatValue(s.value), s.exemplar); err != nil {
				return err
			}
		}
	}
	return nil
}

// counterFamily resolves a counter family name: OpenMetrics counters are
// named without the _total sample suffix, so a family already carrying it is
// trimmed rather than doubled.
func counterFamily(name string) string {
	return strings.TrimSuffix(sanitizeMetricName(name), "_total")
}

// histogramFamily resolves a duration histogram's family name: every
// registry histogram observes durations, so the family is suffixed _seconds
// unless the name already says so.
func histogramFamily(name string) string {
	n := sanitizeMetricName(name)
	if strings.HasSuffix(n, "_seconds") {
		return n
	}
	return n + "_seconds"
}

// leSeconds converts a snapshot bucket bound ("1µs", "2ms", "+Inf") to its
// exposition value in seconds.
func leSeconds(le string) float64 {
	if le == "+Inf" {
		return math.Inf(1)
	}
	d, err := time.ParseDuration(le)
	if err != nil {
		return math.Inf(1)
	}
	return d.Seconds()
}

// addRegistry renders every registry instrument into the family set. The
// histogram samples are derived from the same HistogramSnapshot served as
// JSON on /debug/vars and /debug/thor/metrics, so the two endpoints cannot
// disagree on totals.
func (fs *familySet) addRegistry(reg *Registry) {
	if reg == nil {
		return
	}
	snap := reg.Snapshot()
	for _, name := range sortedKeys(snap.Counters) {
		fam, labels := splitLabeled(name)
		fs.add(counterFamily(fam), "counter", "", omSample{suffix: "_total", labels: labels, value: float64(snap.Counters[name])})
	}
	for _, name := range sortedKeys(snap.Gauges) {
		fam, labels := splitLabeled(name)
		fs.add(sanitizeMetricName(fam), "gauge", "", omSample{labels: labels, value: float64(snap.Gauges[name])})
	}
	for _, name := range sortedKeys(snap.FloatGauges) {
		fam, labels := splitLabeled(name)
		fs.add(sanitizeMetricName(fam), "gauge", "", omSample{labels: labels, value: snap.FloatGauges[name]})
	}
	for _, name := range sortedKeys(snap.Histograms) {
		h := snap.Histograms[name]
		fam, labels := splitLabeled(name)
		fname := histogramFamily(fam)
		// The exemplar attaches to the first bucket whose range covers its
		// value — per OpenMetrics, exemplars ride on _bucket sample lines.
		exemplar := renderExemplar(h.Exemplar)
		for _, b := range h.Buckets {
			bound := leSeconds(b.LE)
			le := `le="` + formatValue(bound) + `"`
			s := omSample{
				suffix: "_bucket",
				labels: joinLabels(labels, le),
				value:  float64(b.Cumulative),
			}
			if exemplar != "" && h.Exemplar.ValueSeconds <= bound {
				s.exemplar, exemplar = exemplar, ""
			}
			fs.add(fname, "histogram", "", s)
		}
		fs.add(fname, "histogram", "", omSample{suffix: "_sum", labels: labels, value: h.SumSeconds})
		fs.add(fname, "histogram", "", omSample{suffix: "_count", labels: labels, value: float64(h.Count)})
	}
	for _, name := range sortedKeys(snap.Distributions) {
		d := snap.Distributions[name]
		fam, labels := splitLabeled(name)
		fname := sanitizeMetricName(fam)
		for _, q := range []struct {
			q string
			v float64
		}{{"0", d.Min}, {"1", d.Max}} {
			fs.add(fname, "summary", "", omSample{
				labels: joinLabels(labels, `quantile="`+q.q+`"`),
				value:  q.v,
			})
		}
		fs.add(fname, "summary", "", omSample{suffix: "_count", labels: labels, value: float64(d.Count)})
	}
}

// sortedKeys returns a string-keyed map's keys in sorted order, for
// deterministic exposition output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// addSLO renders the SLO engine's windowed state: per-stream latency
// quantile summaries, burn rates and violation flags for judged streams,
// and the overall degraded bit /readyz keys off.
func (fs *familySet) addSLO(slo *SLO) {
	if slo == nil {
		return
	}
	st := slo.Status()
	streams := make([]string, 0, len(st.Streams))
	for n := range st.Streams {
		streams = append(streams, n)
	}
	sort.Strings(streams)
	const latFam = "thor_slo_latency_seconds"
	for _, name := range streams {
		ss := st.Streams[name]
		stream := `stream="` + escapeLabelValue(name) + `"`
		for _, q := range []struct {
			q string
			v float64
		}{{"0.5", ss.P50MS / 1e3}, {"0.95", ss.P95MS / 1e3}, {"0.99", ss.P99MS / 1e3}} {
			fs.add(latFam, "summary", "windowed latency quantiles per SLO stream", omSample{
				labels: joinLabels(stream, `quantile="`+q.q+`"`),
				value:  q.v,
			})
		}
		fs.add(latFam, "summary", "", omSample{suffix: "_count", labels: stream, value: float64(ss.Count)})
		if ss.Judged {
			fs.add("thor_slo_burn_rate", "gauge", "error/latency budget burn rate (1 = at budget)",
				omSample{labels: stream, value: ss.BurnRate})
			fs.add("thor_slo_violated", "gauge", "1 while the stream breaches its SLO",
				omSample{labels: stream, value: boolValue(ss.Violated)})
		}
	}
	fs.add("thor_slo_degraded", "gauge", "1 while any judged stream is violating (mirrors /readyz)",
		omSample{value: boolValue(st.Degraded)})
	fs.add("thor_slo_window_seconds", "gauge", "", omSample{value: st.WindowSeconds})
}

func boolValue(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// WriteOpenMetrics renders the registry, the SLO engine and (optionally)
// the Go runtime metrics in OpenMetrics text format: counters with _total
// samples, histograms with cumulative le buckets (including +Inf) plus
// _sum/_count, distributions as summaries of their extremes (quantile 0
// and 1) plus _count, and SLO streams as quantile summaries. reg and slo may
// be nil; their sections are then omitted. The output ends with the
// OpenMetrics EOF marker and is accepted by Prometheus' text parser.
func WriteOpenMetrics(w io.Writer, reg *Registry, slo *SLO, runtimeMetrics bool) error {
	fs := newFamilySet()
	fs.addRegistry(reg)
	fs.addSLO(slo)
	if runtimeMetrics {
		fs.addRuntime()
	}
	if err := fs.write(w); err != nil {
		return fmt.Errorf("obs: write openmetrics: %w", err)
	}
	if _, err := io.WriteString(w, "# EOF\n"); err != nil {
		return fmt.Errorf("obs: write openmetrics: %w", err)
	}
	return nil
}

// MetricsHandler serves GET /metrics: the full OpenMetrics exposition of
// the registry, the SLO engine and the Go runtime. Either source may be
// nil.
func MetricsHandler(reg *Registry, slo *SLO) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		_ = WriteOpenMetrics(w, reg, slo, true)
	})
}
