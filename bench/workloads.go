package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"thor/internal/datagen"
	"thor/internal/experiments"
	"thor/internal/matcher"
	"thor/internal/schema"
	"thor/internal/segment"
	"thor/internal/serve"
	"thor/internal/tablestore"
	"thor/internal/thor"
)

// workloads maps each BENCHMARK.json workload to the code that runs it.
var workloads = map[string]func(*runner) error{
	"sweep":  (*runner).sweep,
	"fresh":  (*runner).fresh,
	"repeat": (*runner).repeat,
	"churn":  (*runner).churn,
	"tier":   (*runner).tier,
}

// sweepGolden are the sweep's pipeline counters on the default seed, per τ:
// documents, sentences, phrases, candidates, entities, filled.
var sweepGolden = map[float64][6]int{
	0.5: {91, 2784, 6473, 17894, 2727, 2251},
	0.6: {91, 2784, 6473, 14036, 2656, 2186},
	0.7: {91, 2784, 6473, 10429, 2381, 1889},
	0.8: {91, 2784, 6473, 6328, 1966, 1473},
	0.9: {91, 2784, 6473, 4425, 1660, 1183},
	1.0: {91, 2784, 6473, 3408, 1372, 909},
}

// sweep is the offline paper run (Table V, Fig 6): repeated cold six-τ
// sweeps over the test split. Every iteration decodes a fresh Space and
// starts empty fine-tune and parse caches shared across its six τ. One
// operation is one τ: thor.New plus RunContext.
func (r *runner) sweep() error {
	ctx := context.Background()
	taus := experiments.Taus
	var first []int
	runMS := make([][]float64, len(taus))
	var coldTune, sharedTune, fill []float64
	s := startSampler()
	for it := 0; it == 0 || r.res.elapsed < r.seconds; it++ {
		t0 := time.Now()
		sp, err := r.space()
		if err != nil {
			return err
		}
		r.res.setup = append(r.res.setup, time.Since(t0))
		tune, parse := matcher.NewCache(), thor.NewParseCache()
		r.spans.set(abba(it))
		start := time.Now()
		var counts []int
		var shared float64
		var parsed int64
		for i, tau := range taus {
			table := r.ds.TestTable()
			t0 := time.Now()
			p, err := thor.New(table, sp, thor.Config{
				Tau:        tau,
				Knowledge:  r.ds.Table,
				Lexicon:    r.ds.Lexicon,
				TuneCache:  tune,
				ParseCache: parse,
				Workers:    r.nproc,
			})
			if err != nil {
				return err
			}
			t1 := time.Now()
			res, err := p.RunContext(ctx, r.ds.Test.Docs)
			t2 := time.Now()
			r.spans.add(spanNew, t0, t1.Sub(t0))
			r.spans.add(spanRun, t1, t2.Sub(t1))
			r.res.attempted++
			if err != nil {
				r.res.fail("sweep τ=%.1f: %v", tau, err)
				continue
			}
			r.res.ops = append(r.res.ops, t2.Sub(t0))
			r.res.runMS = append(r.res.runMS, ms(t2.Sub(t1)))
			r.res.batchDocs = append(r.res.batchDocs, float64(len(r.ds.Test.Docs)))
			runMS[i] = append(runMS[i], ms(t2.Sub(t1)))
			st := res.Stats
			c := [6]int{st.Documents, st.Sentences, st.Phrases, st.Candidates, st.Entities, st.Filled}
			for _, sc := range st.Stages {
				switch sc.Stage {
				case thor.StageFineTune:
					if i == 0 {
						coldTune = append(coldTune, ms(sc.Total))
					} else {
						shared += ms(sc.Total)
					}
				case thor.StageFill:
					fill = append(fill, ms(sc.Total))
				case thor.StagePOSTag:
					parsed += sc.Calls
				}
				r.res.addStage(string(sc.Stage), sc.Calls, ms(sc.Total))
			}
			counts = append(counts, c[:]...)
			r.res.docs += len(st.CompletedDocs)
			r.spans.docs(len(st.CompletedDocs))
			if g, ok := sweepGolden[tau]; ok && r.seed == datagen.DiseaseSeed && c != g {
				r.res.fail("sweep τ=%.1f counters %v, want %v", tau, c, g)
			}
		}
		r.res.elapsed += time.Since(start)
		sharedTune = append(sharedTune, shared)
		// Every iteration must compute the same, and must have parsed every
		// sentence it cached itself: its caches started empty. (Parse calls
		// can exceed the cache size by a few when two workers parse the same
		// sentence at once.)
		counts = append(counts, parse.Len(), parse.DocLen())
		if first == nil {
			first = counts
		} else if !reflect.DeepEqual(counts, first) {
			r.res.fail("sweep iteration %d counters %v differ from the first %v", it, counts, first)
		}
		if parsed < int64(parse.Len()) || parse.Len() == 0 {
			r.res.fail("sweep iteration %d parsed %d sentences but cached %d", it, parsed, parse.Len())
		}
	}
	r.spans.stop()
	s.finish(&r.res)
	r.res.samples["sweeps"] = len(sharedTune)
	r.res.layer["sweep_s"] = metric{r.res.elapsed.Seconds() / float64(len(sharedTune)), "s"}
	r.res.layer["matcher.finetune_cold_ms"] = metric{medianOf(coldTune), "ms"}
	r.res.layer["matcher.finetune_shared_ms"] = metric{medianOf(sharedTune), "ms"}
	r.res.layer["thor.fill_ms"] = metric{medianOf(fill), "ms"}
	for i, tau := range taus {
		r.res.layer[fmt.Sprintf("thor.run_ms.tau%.1f", tau)] = metric{medianOf(runMS[i]), "ms"}
	}
	return nil
}

// fresh serves unseen documents: one-document /v1/fill requests drawing
// every train and validation document once, in seeded order, against a
// cleared table holding a row for every subject of the dataset. A pass over
// the pool takes seconds, so the run makes whole passes until it has
// measured its seconds, each from a newly started engine: every document is
// unseen by the engine serving it.
func (r *runner) fresh() error {
	table := func() *schema.Table {
		t := schema.NewTable(r.ds.Table.Schema)
		for _, sp := range []*datagen.Split{&r.ds.Train, &r.ds.Valid, &r.ds.Test} {
			for _, s := range sp.Subjects {
				t.AddRow(s)
			}
		}
		return t
	}
	docs := append(append([]segment.Document(nil), r.ds.Train.Docs...), r.ds.Valid.Docs...)
	r.rng.Shuffle(len(docs), func(i, j int) { docs[i], docs[j] = docs[j], docs[i] })
	reqs := make([]request, len(docs))
	for i, d := range docs {
		var err error
		if reqs[i], err = encode([]segment.Document{d}); err != nil {
			return err
		}
	}
	// The pool is in seeded random order, so its first requests, which
	// every pass sends first, are the sample.
	sampled := make([]int, min(16, len(reqs)))
	for i := range sampled {
		sampled[i] = i
	}
	f := r.newFills(sampled, r.nproc)
	c := newClient(r.nproc)
	defer c.CloseIdleConnections()
	for pass := 0; pass == 0 || r.res.elapsed < r.seconds; pass++ {
		var e *engine
		var err error
		if pass == 0 {
			e, err = r.startEngines(table, false)
		} else {
			e, err = r.startEngine(table(), false)
		}
		if err != nil {
			return err
		}
		var next atomic.Int64
		r.measure(func(deadline time.Time) {
			r.drive(c, e.url, r.nproc, deadline, reqs, func() (int, bool) {
				i := int(next.Add(1) - 1)
				return i, i < len(reqs)
			}, f)
		})
		e.close()
		r.res.samples["passes"]++
	}
	f.finish()
	return r.checkReplies(table(), reqs, f.kept)
}

// repeat is warm serving: four-document requests cycling the test split.
func (r *runner) repeat() error {
	e, err := r.startEngines(r.ds.TestTable, false)
	if err != nil {
		return err
	}
	defer e.close()
	f, err := r.serveCycle(e, r.nproc, nil)
	if err != nil {
		return err
	}
	return r.checkReplies(r.ds.TestTable(), f.reqs, f.kept)
}

// churn is repeat traffic from nproc−1 clients beside one writer that
// mutates the live table every 250ms.
func (r *runner) churn() error {
	e, err := r.startEngines(r.ds.TestTable, false)
	if err != nil {
		return err
	}
	defer e.close()
	w := &writer{muts: r.mutations(1 + int(r.seconds/(250*time.Millisecond)))}
	if _, err := r.serveCycle(e, max(1, r.nproc-1), w); err != nil {
		return err
	}
	w.report(r)
	c := newClient(1)
	defer c.CloseIdleConnections()
	resp, err := c.Get(e.url + "/v1/table")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var info serve.TableInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return fmt.Errorf("GET /v1/table: %w", err)
	}
	if info.Version != 1+uint64(w.swaps) {
		r.res.fail("final table version %d, want 1 + %d swaps", info.Version, w.swaps)
	}
	return nil
}

// tier is repeat traffic through a single-shard router in front of one
// backend, all in process on loopback.
func (r *runner) tier() error {
	e, err := r.startEngines(r.ds.TestTable, true)
	if err != nil {
		return err
	}
	defer e.close()
	f, err := r.serveCycle(e, r.nproc, nil)
	if err != nil {
		return err
	}

	// The router must relay exactly the bytes the backend wrote.
	c := newClient(1)
	defer c.CloseIdleConnections()
	e.capture.armed.Store(true)
	for _, idx := range r.sample(16, len(f.reqs)) {
		r.res.attempted++
		status, body, err := post(c, e.url+"/v1/fill", f.reqs[idx].body, "")
		if sent := e.capture.take(); err != nil || status != http.StatusOK || string(body) != string(sent) {
			r.res.fail("tier check request %d: status %d, %v; router relayed %d bytes, backend wrote %d",
				idx, status, err, len(body), len(sent))
		}
	}
	return r.checkReplies(r.ds.TestTable(), f.reqs, f.kept)
}

// request is one encoded /v1/fill body and the documents it carries.
type request struct {
	docs []segment.Document
	body []byte
}

func encode(docs []segment.Document) (request, error) {
	req := serve.Request{Documents: make([]serve.Document, len(docs))}
	for i, d := range docs {
		req.Documents[i] = serve.Document{Name: d.Name, DefaultSubject: d.DefaultSubject, Text: d.Text}
	}
	b, err := json.Marshal(req)
	return request{docs: docs, body: b}, err
}

// sample picks n distinct indices below limit.
func (r *runner) sample(n, limit int) []int {
	p := r.rng.Perm(limit)
	return p[:min(n, limit)]
}

// warmDocs is the size of a warm request. On repeat and tier the two
// clients' requests coalesce into a batch of 8, half of BatchMax, so each
// batch closes on its window as it does for callers that do not saturate
// the server. Requests that fill
// BatchMax at once keep both CPUs busy, and on a shared two-CPU host their
// throughput spread three times wider between runs (interquartile range
// 29% of the median, against 9%).
const warmDocs = 4

// serveCycle warms e with one pass over warmDocs-document requests cycling
// the test split in seeded order, then measures the closed loop with clients
// clients, plus the writer when w is set.
func (r *runner) serveCycle(e *engine, clients int, w *writer) (*fills, error) {
	order := r.rng.Perm(len(r.ds.Test.Docs))
	reqs := make([]request, len(order))
	for i := range reqs {
		docs := make([]segment.Document, warmDocs)
		for j := range docs {
			docs[j] = r.ds.Test.Docs[order[(warmDocs*i+j)%len(order)]]
		}
		var err error
		if reqs[i], err = encode(docs); err != nil {
			return nil, err
		}
	}
	c := newClient(r.nproc)
	defer c.CloseIdleConnections()

	warm := r.newFills(nil, r.nproc)
	var next atomic.Int64
	r.drive(c, e.url, r.nproc, time.Now().Add(time.Minute), reqs, func() (int, bool) {
		i := int(next.Add(1) - 1)
		return i, i < len(reqs)
	}, warm)
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d requests failed", warm.failed, len(reqs))
	}

	f := r.newFills(r.sample(16, len(reqs)), clients)
	f.reqs = reqs
	next.Store(0)
	var calls0 int64
	if e.capture != nil {
		calls0 = e.capture.calls.Load()
	}
	r.measure(func(deadline time.Time) {
		var wg sync.WaitGroup
		if w != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.run(r, c, e.url, deadline, f)
			}()
		}
		r.drive(c, e.url, clients, deadline, reqs, func() (int, bool) {
			return int(next.Add(1)-1) % len(reqs), true
		}, f)
		wg.Wait()
	})
	f.finish()
	if e.capture != nil {
		// Backend calls per router request: 1, plus hedges and retries.
		perReq := ratio(float64(e.capture.calls.Load()-calls0), float64(len(f.lat)))
		r.res.layer["router.backend_calls_per_req"] = metric{perReq, "count"}
		if r.spans != nil {
			self := meanOf(r.spans.durations(spanRouter)) - perReq*meanOf(r.spans.durations(spanServe))
			r.res.layer["router.self_ms_mean"] = metric{self, "ms"}
		}
	}
	return f, nil
}

// fills accounts the /v1/fill round trips of one phase. Its mutex also
// guards r.res while the clients run; finish moves a measured phase's
// observations into r.res.
type fills struct {
	r        *runner
	mu       sync.Mutex
	reqs     []request
	lat      []time.Duration
	stats    []serve.Stats
	docs     int
	want     map[int]bool
	kept     map[int][]byte
	versions []uint64 // last table version each client saw
	failed   int
}

func (r *runner) newFills(sampled []int, clients int) *fills {
	f := &fills{r: r, want: map[int]bool{}, kept: map[int][]byte{}, versions: make([]uint64, clients)}
	for _, i := range sampled {
		f.want[i] = true
	}
	return f
}

// drive runs the closed loop: each client sends the request next picks and
// waits for the reply, until deadline or until next reports the pool empty.
func (r *runner) drive(c *http.Client, url string, clients int, deadline time.Time, reqs []request, next func() (int, bool), f *fills) {
	closedLoop(clients, deadline, func(client int) bool {
		idx, ok := next()
		if !ok {
			return false
		}
		t0 := time.Now()
		status, body, err := post(c, url+"/v1/fill", reqs[idx].body, "")
		f.record(client, idx, len(reqs[idx].docs), t0, time.Since(t0), status, body, err)
		return true
	})
}

// record accounts one round trip by client for request idx.
func (f *fills) record(client, idx, nDocs int, t0 time.Time, lat time.Duration, status int, body []byte, err error) {
	var reply struct {
		Stats serve.Stats `json:"stats"`
	}
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(body, &reply)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	res := &f.r.res
	res.attempted++
	switch {
	case err != nil:
		f.failed++
		res.fail("request %d: %v", idx, err)
		return
	case status != http.StatusOK:
		f.failed++
		res.fail("request %d: status %d: %.200s", idx, status, body)
		return
	case reply.Stats.Completed != nDocs:
		f.failed++
		res.fail("request %d: %d of %d documents completed", idx, reply.Stats.Completed, nDocs)
		return
	}
	if v := reply.Stats.TableVersion; v < f.versions[client] {
		res.fail("client %d saw table version %d after %d", client, v, f.versions[client])
	} else {
		f.versions[client] = v
	}
	f.lat = append(f.lat, lat)
	f.stats = append(f.stats, reply.Stats)
	f.docs += nDocs
	if f.want[idx] && f.kept[idx] == nil {
		f.kept[idx] = body
	}
	f.r.spans.add(spanRequest, t0, lat)
	f.r.spans.docs(nDocs)
}

// finish moves a measured phase's observations into the run's results.
func (f *fills) finish() {
	res := &f.r.res
	res.ops = f.lat
	res.docs = f.docs
	res.samples["requests"] = len(f.lat)
	queue := make([]float64, len(f.stats))
	for i, st := range f.stats {
		queue[i] = st.QueueWaitMS
		res.runMS = append(res.runMS, st.RunMS)
		res.batchDocs = append(res.batchDocs, float64(st.BatchDocs))
		for _, sc := range st.Stages {
			res.addStage(sc.Stage, sc.Calls, sc.TotalMS)
		}
	}
	sort.Float64s(queue)
	tail, _ := tailOf(queue)
	res.layer["serve.queue_wait_ms_p50"] = metric{quantile(queue, 0.5), "ms"}
	res.layer["serve.queue_wait_ms_p99"] = metric{tail, "ms"}
	if spans := f.r.spans; spans != nil {
		handler := spans.durations(spanServe)
		outer := handler
		if router := spans.durations(spanRouter); len(router) > 0 {
			outer = router
		}
		res.layer["serve.handler_ms_p50"] = metric{medianOf(handler), "ms"}
		res.layer["serve.residual_ms_mean"] = metric{meanOf(handler) - meanOf(queue) - meanOf(res.runMS), "ms"}
		res.layer["bench.client_ms_mean"] = metric{meanOf(spans.durations(spanRequest)) - meanOf(outer), "ms"}
	}
}

// measure runs phase as (part of) the measured phase, with a deadline of
// the run's seconds: runtime sampling and, in traced runs, span recording
// switched on and off.
func (r *runner) measure(phase func(deadline time.Time)) {
	s := startSampler()
	start := time.Now()
	done := make(chan struct{})
	var wg sync.WaitGroup
	if r.spans != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.spans.alternate(done)
		}()
	}
	phase(start.Add(r.seconds))
	close(done)
	wg.Wait()
	r.res.elapsed += time.Since(start)
	s.finish(&r.res)
}

// checkReplies compares kept /v1/fill replies with a single-shot pipeline
// run over the same documents against the same table: the entities and the
// assignments must be equal.
func (r *runner) checkReplies(table *schema.Table, reqs []request, kept map[int][]byte) error {
	p, err := thor.New(table, r.ds.Space, thor.Config{
		Tau:       experiments.BestTau,
		Knowledge: r.ds.Table,
		Lexicon:   r.ds.Lexicon,
	})
	if err != nil {
		return err
	}
	idx := make([]int, 0, len(kept))
	for i := range kept {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		var got serve.Response
		if err := json.Unmarshal(kept[i], &got); err != nil {
			r.res.fail("reply %d: %v", i, err)
			continue
		}
		res, err := p.Run(reqs[i].docs)
		if err != nil {
			return err
		}
		want := thor.Assignments(table, res.Entities)
		if !reflect.DeepEqual(got.Entities, wire(res.Entities)) ||
			len(got.Assignments)+len(want) > 0 && !reflect.DeepEqual(got.Assignments, want) {
			r.res.fail("reply %d differs from a single-shot run over its documents", i)
		}
	}
	r.res.samples["checked_replies"] = len(idx)
	if len(idx) == 0 {
		r.res.fail("no sampled reply was checked")
	}
	return nil
}

// wire converts entities to their /v1/fill form.
func wire(entities map[string][]thor.Entity) map[string][]serve.Entity {
	out := make(map[string][]serve.Entity, len(entities))
	for subj, es := range entities {
		ws := make([]serve.Entity, len(es))
		for i, e := range es {
			ws[i] = serve.Entity{Phrase: e.Phrase, Concept: string(e.Concept), Doc: e.Doc, Matched: e.Matched,
				Score: e.Score, Semantic: e.ScoreS, Jaccard: e.ScoreW, Gestalt: e.ScoreC}
		}
		out[subj] = ws
	}
	return out
}

// writer is churn's table writer.
type writer struct {
	muts        [][]byte
	lat         []time.Duration
	swaps       int
	invalidated int
	retained    int
}

// mutations makes n seeded POST /v1/table bodies. Each appends a vocabulary
// value to a row under a rotating concept; every fourth adds a row for a
// train subject, which changes the subject set the segmenter matches.
func (r *runner) mutations(n int) [][]byte {
	concepts := r.ds.Table.Schema.NonSubject()
	newRows := append([]string(nil), r.ds.Train.Subjects...)
	r.rng.Shuffle(len(newRows), func(i, j int) { newRows[i], newRows[j] = newRows[j], newRows[i] })
	out := make([][]byte, n)
	for i := range out {
		c := concepts[i%len(concepts)]
		vocab := r.ds.Vocab[c]
		subject := r.ds.Test.Subjects[r.rng.Intn(len(r.ds.Test.Subjects))]
		if i%4 == 3 {
			subject = newRows[(i/4)%len(newRows)]
		}
		// Plain data: Marshal cannot fail.
		b, _ := json.Marshal(serve.MutationRequest{Updates: []tablestore.RowUpdate{{
			Subject: subject,
			Cells:   map[schema.Concept][]string{c: {vocab[r.rng.Intn(len(vocab))]}},
		}}})
		out[i] = b
	}
	return out
}

// run posts one mutation every 250ms until deadline, each conditioned on
// the version the previous one produced.
func (w *writer) run(r *runner, c *http.Client, url string, deadline time.Time, f *fills) {
	version := uint64(1)
	for i := 0; i < len(w.muts) && time.Now().Add(250*time.Millisecond).Before(deadline); i++ {
		time.Sleep(250 * time.Millisecond)
		t0 := time.Now()
		status, body, err := post(c, url+"/v1/table", w.muts[i], strconv.FormatUint(version, 10))
		lat := time.Since(t0)
		var mr tablestore.MutateResult
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(body, &mr)
		}
		f.mu.Lock()
		r.res.attempted++
		if err != nil || status != http.StatusOK {
			r.res.fail("mutation %d: status %d, %v: %.200s", i, status, err, body)
		} else {
			w.lat = append(w.lat, lat)
			if mr.Version > mr.Previous {
				w.swaps++
			}
			version = mr.Version
			w.invalidated += len(mr.Invalidated)
			w.retained += mr.Retained
			r.spans.add(spanTable, t0, lat)
		}
		f.mu.Unlock()
	}
}

func (w *writer) report(r *runner) {
	n := float64(max(1, len(w.lat)))
	r.res.samples["mutations"] = len(w.lat)
	r.res.layer["swap_p50_ms"] = metric{medianDur(w.lat), "ms"}
	r.res.layer["tablestore.invalidated_per_mutation"] = metric{float64(w.invalidated) / n, "count"}
	r.res.layer["tablestore.retained_per_mutation"] = metric{float64(w.retained) / n, "count"}
}
