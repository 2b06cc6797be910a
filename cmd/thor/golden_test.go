package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"thor/internal/datagen"
	"thor/internal/thor"
)

// TestGoldenCounters is the output oracle for the CLI's configuration: the
// full Disease A–Z table and its test split, written to disk the way
// cmd/datagen writes them and read back through the CLI's own loaders, the
// self-built embedding space, τ = 0.7 and no default subjects (test document
// names are not table rows). Every change must leave these reference
// counters exactly as they are.
func TestGoldenCounters(t *testing.T) {
	ds := datagen.Disease(datagen.DiseaseSeed)
	dir := t.TempDir()
	tablePath := filepath.Join(dir, "table.json")
	f, err := os.Create(tablePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Table.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	docsDir := filepath.Join(dir, "test")
	if err := os.Mkdir(docsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, d := range ds.Test.Docs {
		if err := os.WriteFile(filepath.Join(docsDir, d.Name+".txt"), []byte(d.Text), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	table, err := loadTable(tablePath, "")
	if err != nil {
		t.Fatal(err)
	}
	docs, err := loadDocs(docsDir, table)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if d.DefaultSubject != "" {
			t.Fatalf("document %s got default subject %q; the reference run has none", d.Name, d.DefaultSubject)
		}
	}
	res, err := thor.RunContext(context.Background(), table, selfSpace(table), docs, thor.Config{Tau: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	got := [6]int{st.Documents, st.Sentences, st.Phrases, st.Candidates, st.Entities, st.Filled}
	want := [6]int{91, 2784, 4753, 3744, 1387, 853}
	if got != want {
		t.Fatalf("docs/sentences/phrases/candidates/entities/filled = %v, want %v", got, want)
	}
}
