package serve

import (
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"testing"

	"thor/internal/datagen"
	"thor/internal/obs"
	"thor/internal/schema"
	"thor/internal/tablestore"
)

// TestSwapsReleaseDocumentGroups drives repeated subject-adding swaps. Each
// adds a row, so every version segments under a new subject set and takes a
// new document group from the parse cache. The cache must keep only the
// newest group: a version still held keeps its own group alive beside it,
// and once that version drains its group is collected. The cache gauges
// report what the caches hold after every run.
func TestSwapsReleaseDocumentGroups(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := startEngine(t, Options{Metrics: reg}, nil)
	client := ts.Client()
	fill := func() {
		t.Helper()
		if status, raw, _ := postJSON(t, client, ts.URL+"/v1/fill", Request{Documents: worldDocs}); status != http.StatusOK {
			t.Fatalf("fill: status %d: %s", status, raw)
		}
	}
	addSubject := func(i int) {
		t.Helper()
		mut := MutationRequest{Updates: []tablestore.RowUpdate{{
			Subject: fmt.Sprintf("Novel Disease %d", i),
			Cells:   map[schema.Concept][]string{"Anatomy": {"brain"}},
		}}}
		if status, raw := postTable(t, client, ts.URL, mut, ""); status != http.StatusOK {
			t.Fatalf("mutation %d: status %d: %s", i, status, raw)
		}
	}
	settle := func(want int) {
		t.Helper()
		waitFor(t, fmt.Sprintf("%d live document group(s)", want), func() bool {
			runtime.GC()
			return s.parse.Groups() == want
		})
	}

	for i := 0; i < 8; i++ {
		fill()
		addSubject(i)
	}
	fill()
	settle(1)

	// A reader pinning the current version across one more swap keeps that
	// version's group alive beside the new one; its release lets it go.
	held := s.store.Acquire()
	addSubject(8)
	fill()
	settle(2)
	held.Release()
	held = nil
	settle(1)

	fill()
	if got := s.parse.DocLen(); got != len(worldDocs) {
		t.Errorf("newest group holds %d documents, want %d", got, len(worldDocs))
	}
	want := map[string]int64{
		"thor.cache.document_groups": 1,
		"thor.cache.documents":       int64(len(worldDocs)),
		"thor.cache.sentences":       int64(s.parse.Len()),
		"thor.cache.refine_pairs":    int64(s.parse.RefineLen()),
		"thor.cache.matchers":        int64(s.tune.Len()),
		"thor.cache.seed_clusters":   int64(s.tune.SeedLen()),
	}
	gauges := reg.Snapshot().Gauges
	for name, v := range want {
		if gauges[name] != v {
			t.Errorf("%s = %d, want %d", name, gauges[name], v)
		}
	}
	if gauges["thor.cache.sentences"] == 0 || gauges["thor.cache.refine_pairs"] == 0 {
		t.Errorf("cache gauges read empty caches: %v", gauges)
	}
}

// TestLiveFineTuneKeepsOneMatcher serves the Disease test table without a
// separate knowledge table, so every value mutation re-fine-tunes the
// matcher on the live table. The fine-tune cache must keep one matcher for
// the server's one configuration and one seed cluster per concept, however
// many versions go by, and the churned server must fill exactly like a
// server started fresh on the final table.
func TestLiveFineTuneKeepsOneMatcher(t *testing.T) {
	ds := datagen.Disease(datagen.DiseaseSeed)
	opts := Options{Table: ds.TestTable(), Space: ds.Space, Tau: 0.7, Lexicon: ds.Lexicon}
	s, ts := startEngine(t, opts, nil)
	client := ts.Client()

	var reqs []Request
	for i := 0; i+4 <= 16; i += 4 {
		var docs []Document
		for _, d := range ds.Test.Docs[i : i+4] {
			docs = append(docs, Document{Name: d.Name, DefaultSubject: d.DefaultSubject, Text: d.Text})
		}
		reqs = append(reqs, Request{Documents: docs})
	}
	concepts := ds.Table.Schema.NonSubject()
	const mutations = 40
	for i := 0; i < mutations; i++ {
		c := concepts[i%len(concepts)]
		vocab := ds.Vocab[c]
		mut := MutationRequest{Updates: []tablestore.RowUpdate{{
			Subject: ds.Test.Subjects[(7*i)%len(ds.Test.Subjects)],
			Cells:   map[schema.Concept][]string{c: {vocab[(13*i)%len(vocab)]}},
		}}}
		if status, raw := postTable(t, client, ts.URL, mut, ""); status != http.StatusOK {
			t.Fatalf("mutation %d: status %d: %s", i, status, raw)
		}
		if status, raw, _ := postJSON(t, client, ts.URL+"/v1/fill", reqs[i%len(reqs)]); status != http.StatusOK {
			t.Fatalf("fill after mutation %d: status %d: %s", i, status, raw)
		}
	}
	if s.TableVersion() != 1+mutations {
		t.Fatalf("table version %d after %d mutations", s.TableVersion(), mutations)
	}
	if got := s.tune.Len(); got != 1 {
		t.Errorf("fine-tune cache holds %d matchers after %d mutations, want 1", got, mutations)
	}
	if got, max := s.tune.SeedLen(), len(ds.Table.Schema.Concepts); got > max {
		t.Errorf("fine-tune cache holds %d seed clusters, want at most %d (one per concept)", got, max)
	}

	final := s.store.Acquire()
	freshOpts := opts
	freshOpts.Table = final.Table.Clone()
	final.Release()
	_, fresh := startEngine(t, freshOpts, nil)
	for i, req := range reqs {
		status, raw, _ := postJSON(t, client, ts.URL+"/v1/fill", req)
		fstatus, fraw, _ := postJSON(t, fresh.Client(), fresh.URL+"/v1/fill", req)
		if status != http.StatusOK || fstatus != http.StatusOK {
			t.Fatalf("request %d: status %d churned, %d fresh", i, status, fstatus)
		}
		got, want := decodeResponse(t, raw), decodeResponse(t, fraw)
		// Stage calls and timings shift with what the caches already hold;
		// everything else must match.
		got.Stats.Stages, want.Stats.Stages = nil, nil
		zeroTimings(&got)
		zeroTimings(&want)
		got.Stats.BatchDocs, want.Stats.BatchDocs = 0, 0
		got.Stats.TableVersion, want.Stats.TableVersion = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Errorf("request %d: churned server fills differ from a fresh one\n got: %+v\nwant: %+v", i, got, want)
		}
		if len(got.Entities) == 0 {
			t.Errorf("request %d extracted no entity; the comparison is empty", i)
		}
	}
}
