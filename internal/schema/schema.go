package schema

import (
	"fmt"
	"sort"
	"strings"
)

// Concept is a category of things in the integrated schema, e.g. 'Disease'
// or 'Anatomy'. Concepts double as column names.
type Concept string

// Schema is an ordered collection of concepts among which one, the subject
// concept, plays the role of the primary key.
type Schema struct {
	// Subject is the subject concept C*.
	Subject Concept
	// Concepts lists every concept including the subject, in column order.
	Concepts []Concept
}

// NewSchema builds a schema from the subject concept and the remaining
// concepts, in order.
func NewSchema(subject Concept, others ...Concept) Schema {
	cs := make([]Concept, 0, len(others)+1)
	cs = append(cs, subject)
	cs = append(cs, others...)
	return Schema{Subject: subject, Concepts: cs}
}

// Has reports whether c is part of the schema.
func (s Schema) Has(c Concept) bool {
	for _, x := range s.Concepts {
		if x == c {
			return true
		}
	}
	return false
}

// NonSubject returns the concepts other than the subject, in column order.
func (s Schema) NonSubject() []Concept {
	out := make([]Concept, 0, len(s.Concepts)-1)
	for _, c := range s.Concepts {
		if c != s.Subject {
			out = append(out, c)
		}
	}
	return out
}

// WithConcept returns a copy of the schema extended with a new concept. It
// is the schema-evolution operation THOR supports without re-annotation.
// Adding an existing concept returns the schema unchanged.
func (s Schema) WithConcept(c Concept) Schema {
	if s.Has(c) {
		return s
	}
	cs := make([]Concept, len(s.Concepts), len(s.Concepts)+1)
	copy(cs, s.Concepts)
	return Schema{Subject: s.Subject, Concepts: append(cs, c)}
}

// Row is one tuple of a concept-oriented table. The subject value is single;
// every other concept may hold zero or more instances. A nil cell slice is
// the labeled null ⊥ ("nothing known"), distinct from an empty non-nil slice
// only in provenance; both count as missing.
type Row struct {
	// Subject is the row's subject instance (the key).
	Subject string
	// Cells maps each non-subject concept to its instances.
	Cells map[Concept][]string
}

// Values returns the instances the row holds for concept c (nil if missing
// or if c is the subject concept — use Subject for that).
func (r *Row) Values(c Concept) []string { return r.Cells[c] }

// Has reports whether the row already holds value v for concept c
// (case-insensitive).
func (r *Row) Has(c Concept, v string) bool {
	lv := strings.ToLower(v)
	for _, x := range r.Cells[c] {
		if strings.ToLower(x) == lv {
			return true
		}
	}
	return false
}

// Add appends value v to concept c unless already present. It reports
// whether the row changed.
func (r *Row) Add(c Concept, v string) bool {
	if v == "" || r.Has(c, v) {
		return false
	}
	if r.Cells == nil {
		r.Cells = make(map[Concept][]string)
	}
	r.Cells[c] = append(r.Cells[c], v)
	return true
}

// Missing reports whether the row's cell for c is a labeled null.
func (r *Row) Missing(c Concept) bool { return len(r.Cells[c]) == 0 }

// Table is a relation adhering to a concept-oriented schema.
type Table struct {
	// Schema is the table's concept-oriented schema.
	Schema Schema
	// Rows in insertion order; Subjects are unique (enforced by AddRow).
	Rows []*Row

	bySubject map[string]*Row
}

// NewTable returns an empty table over the schema.
func NewTable(s Schema) *Table {
	return &Table{Schema: s, bySubject: make(map[string]*Row)}
}

// NewTableSized returns an empty table pre-sized for rows — the bulk-load
// constructor: deserializers that know the row count up front skip the
// subject index's incremental growth.
func NewTableSized(s Schema, rows int) *Table {
	return &Table{
		Schema:    s,
		Rows:      make([]*Row, 0, rows),
		bySubject: make(map[string]*Row, rows),
	}
}

// AddRow inserts a row for the subject instance and returns it. If the
// subject already exists, the existing row is returned.
func (t *Table) AddRow(subject string) *Row {
	key := strings.ToLower(subject)
	if r, ok := t.bySubject[key]; ok {
		return r
	}
	r := &Row{Subject: subject, Cells: make(map[Concept][]string)}
	t.Rows = append(t.Rows, r)
	t.bySubject[key] = r
	return r
}

// Row returns the row whose subject equals s (case-insensitive), or nil.
func (t *Table) Row(s string) *Row { return t.bySubject[strings.ToLower(s)] }

// Subjects returns all subject instances in row order. This is R.C* in the
// paper's notation.
func (t *Table) Subjects() []string {
	out := make([]string, len(t.Rows))
	for i, r := range t.Rows {
		out[i] = r.Subject
	}
	return out
}

// ColumnValues returns the deduplicated set of instances appearing in column
// c across all rows — R.C in the paper's notation. For the subject concept it
// returns the subjects. Results are sorted for determinism.
func (t *Table) ColumnValues(c Concept) []string {
	seen := make(map[string]string)
	if c == t.Schema.Subject {
		for _, r := range t.Rows {
			seen[strings.ToLower(r.Subject)] = r.Subject
		}
	} else {
		for _, r := range t.Rows {
			for _, v := range r.Cells[c] {
				seen[strings.ToLower(v)] = v
			}
		}
	}
	out := make([]string, 0, len(seen))
	for _, v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// InstanceCount returns the total number of instances stored in the table,
// counting the subject column, matching how the paper counts "total
// instances" (e.g. 4,706 for Disease A-Z).
func (t *Table) InstanceCount() int {
	n := len(t.Rows)
	for _, r := range t.Rows {
		for _, vs := range r.Cells {
			n += len(vs)
		}
	}
	return n
}

// Fingerprint returns an FNV-1a hash of the table's full content — schema
// (subject and column order), rows in insertion order, and each row's cells
// in schema column order. Equal-content tables hash equal regardless of cell
// map iteration order, so the fingerprint is a stable cache key for work
// derived from the table, such as fine-tuned matchers.
func (t *Table) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	write := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		// Separator so ("ab","c") and ("a","bc") hash differently.
		h ^= 0xff
		h *= prime64
	}
	write(string(t.Schema.Subject))
	for _, c := range t.Schema.Concepts {
		write(string(c))
	}
	for _, r := range t.Rows {
		write(r.Subject)
		for _, c := range t.Schema.Concepts {
			for _, v := range r.Cells[c] {
				write(v)
			}
			h ^= 0xfe
			h *= prime64
		}
	}
	return h
}

// ConceptFingerprint returns an FNV-1a hash of the deduplicated, sorted
// instance set of column c — exactly the input the matcher builds c's seed
// cluster from (ColumnValues). Two tables whose column c holds the same
// value set fingerprint equal for c even when every other column differs,
// which is what lets a live-table mutation invalidate fine-tune state for
// only the concepts it actually touched.
func (t *Table) ConceptFingerprint(c Concept) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	write := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		h ^= 0xff
		h *= prime64
	}
	write(string(c))
	for _, v := range t.ColumnValues(c) {
		write(v)
	}
	return h
}

// ConceptFingerprints returns the per-concept content fingerprints of every
// concept in the schema, the subject included. Diffing two tables' maps
// names exactly the concepts whose instance sets changed between them.
func (t *Table) ConceptFingerprints() map[Concept]uint64 {
	out := make(map[Concept]uint64, len(t.Schema.Concepts))
	for _, c := range t.Schema.Concepts {
		out[c] = t.ConceptFingerprint(c)
	}
	return out
}

// Clone returns a deep copy of the row: the cell map and its value slices
// are fresh, so mutating the copy never aliases the original.
func (r *Row) Clone() *Row {
	nr := &Row{Subject: r.Subject, Cells: make(map[Concept][]string, len(r.Cells))}
	for c, vs := range r.Cells {
		nr.Cells[c] = append([]string(nil), vs...)
	}
	return nr
}

// CloneShared returns a shallow, copy-on-write clone: a fresh Rows slice and
// subject index pointing at the SAME Row values as the receiver. Callers that
// treat rows as immutable — replacing a row via SetRow with a Clone instead
// of mutating in place — get O(rows) snapshots whose unmodified rows are
// shared with every other snapshot (the tablestore's swap primitive).
func (t *Table) CloneShared() *Table {
	out := &Table{
		Schema:    t.Schema,
		Rows:      append(make([]*Row, 0, len(t.Rows)+1), t.Rows...),
		bySubject: make(map[string]*Row, len(t.Rows)+1),
	}
	for k, r := range t.bySubject {
		out.bySubject[k] = r
	}
	return out
}

// SetRow installs r as the row for its subject: replacing the existing row
// with the same (case-insensitive) subject in place, or appending a new row.
// It is the copy-on-write complement of CloneShared — swap in a cloned,
// mutated row without touching the shared original.
func (t *Table) SetRow(r *Row) {
	key := strings.ToLower(r.Subject)
	if t.bySubject == nil {
		t.bySubject = make(map[string]*Row)
	}
	if old, ok := t.bySubject[key]; ok {
		for i, x := range t.Rows {
			if x == old {
				t.Rows[i] = r
				break
			}
		}
		t.bySubject[key] = r
		return
	}
	t.Rows = append(t.Rows, r)
	t.bySubject[key] = r
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	out := NewTable(t.Schema)
	for _, r := range t.Rows {
		nr := out.AddRow(r.Subject)
		for c, vs := range r.Cells {
			nr.Cells[c] = append([]string(nil), vs...)
		}
	}
	return out
}

// ClearNonSubject removes every non-subject value, producing the worst-case
// evaluation tables (R_test') of Section V: only the subject column remains.
func (t *Table) ClearNonSubject() {
	for _, r := range t.Rows {
		r.Cells = make(map[Concept][]string)
	}
}

// Sparsity summarizes missingness: cells is rows × non-subject concepts,
// missing the count of labeled nulls among them.
type Sparsity struct {
	// Cells is rows × non-subject concepts.
	Cells int
	// Missing counts the labeled nulls among them.
	Missing int
}

// Ratio returns Missing/Cells, or 0 for an empty table.
func (s Sparsity) Ratio() float64 {
	if s.Cells == 0 {
		return 0
	}
	return float64(s.Missing) / float64(s.Cells)
}

// Sparsity computes the table's missing-value statistics.
func (t *Table) Sparsity() Sparsity {
	var sp Sparsity
	for _, r := range t.Rows {
		for _, c := range t.Schema.NonSubject() {
			sp.Cells++
			if r.Missing(c) {
				sp.Missing++
			}
		}
	}
	return sp
}

// String renders a compact description of the table.
func (t *Table) String() string {
	sp := t.Sparsity()
	return fmt.Sprintf("Table[%s: %d concepts, %d rows, %d instances, %.1f%% sparse]",
		t.Schema.Subject, len(t.Schema.Concepts), len(t.Rows), t.InstanceCount(), 100*sp.Ratio())
}

// SparsityByConcept computes per-column missing-value statistics: for each
// non-subject concept, how many of the table's rows hold a labeled null.
func (t *Table) SparsityByConcept() map[Concept]Sparsity {
	out := make(map[Concept]Sparsity, len(t.Schema.Concepts))
	for _, c := range t.Schema.NonSubject() {
		var sp Sparsity
		for _, r := range t.Rows {
			sp.Cells++
			if r.Missing(c) {
				sp.Missing++
			}
		}
		out[c] = sp
	}
	return out
}
