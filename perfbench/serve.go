package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/analytics"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/gio"
	"repro/internal/obs"
	"repro/internal/seq"
	"repro/internal/serve"
)

// The serve query mix: mostly single-source traversals from
// degree-biased sources, with a Zipf-distributed share repeating earlier
// queries (which the result cache can answer) and occasional whole-graph
// queries in the same stream. That shape is the benchmark's specification;
// the proportions below, the repeat share, the Zipf exponent, and the
// mutation rate and batch size are assumptions with no measured source.
// README.md reports how the gated serve metrics move when each changes.
var queryMix = []struct {
	kind   string
	weight float64
}{
	{"bfs", 0.60}, {"sssp", 0.15}, {"harmonic", 0.20},
	{"wcc", 0.02}, {"pagerank", 0.015}, {"kcore", 0.015},
}

const (
	repeatShare = 0.3
	zipfS       = 1.2
	// pairShare of the SSSP queries name two sources (see stream).
	pairShare = 0.1
	// serve-write's mutation stream: batches per second, and the
	// auto-compaction cadence in batches (each compaction swap is followed
	// by an auto-snapshot).
	mutateHz     = 0.5
	compactEvery = 2
	// verifyMax caps the rooted queries serve-write re-asks at the final
	// epoch to check them.
	verifyMax = 24
)

func runServeRead(cfg *config, in *input, tr *recorder) (*measurement, error) {
	return runServe(cfg, in, tr, false)
}

func runServeWrite(cfg *config, in *input, tr *recorder) (*measurement, error) {
	return runServe(cfg, in, tr, true)
}

// query is one request of the stream.
type query struct {
	kind string
	// sources[:width] are a rooted query's sources: one, or two for an
	// SSSP pair.
	sources [2]uint32
	width   int
	due     time.Duration // offset from the window start
}

func (q query) roots() []uint32 { return q.sources[:q.width] }

func rooted(kind string) bool { return kind == "bfs" || kind == "sssp" || kind == "harmonic" }

// stream draws the window's arrivals and their queries: rate x seconds
// arrivals, one at a uniformly random time within each of that many equal
// slots of the window, sent whether or not earlier ones were answered.
// The kinds, the repeat share and the SSSP pairs are dealt from a
// shuffled deck with exact proportions, so seeds differ in order and
// sources but not in how much of each kind of work they offer.
//
// SSSP's batched kernel costs more than running its sources one by one: a
// 2-source MultiSSSP allocates about 480 MiB, ten times one SSSP.
// Two SSSP queries that happen to wait in the queue together are batched
// into one, which moved serve-read's allocation per answer by 40 % between
// seeds. So the SSSP queries are spread evenly over the window, where they
// do not meet, and pairShare of them are 2-source queries instead, which
// run the batched kernel the same number of times on every run.
func stream(seed uint64, in *input, rate, seconds float64) []query {
	rng := rand.New(rand.NewSource(int64(seed) ^ 0x51ee))
	n := int(math.Round(rate * seconds))
	// The deck holds each kind's exact share, and within each kind its
	// exact repeat share (a repeat of an SSSP costs nothing from the
	// cache; a fresh one costs a full traversal).
	type card struct {
		kind         string
		repeat, pair bool
	}
	var sssp, other []card
	for _, mx := range queryMix {
		c := int(math.Round(mx.weight * float64(n)))
		repeats := int(math.Round(repeatShare * float64(c)))
		for i := 0; i < c; i++ {
			cd := card{kind: mx.kind, repeat: i < repeats}
			if mx.kind == "sssp" {
				cd.pair = i >= repeats && i < repeats+int(math.Round(pairShare*float64(c)))
				sssp = append(sssp, cd)
			} else {
				other = append(other, cd)
			}
		}
	}
	for len(sssp)+len(other) < n {
		other = append(other, card{kind: queryMix[0].kind})
	}
	rng.Shuffle(len(sssp), func(i, j int) { sssp[i], sssp[j] = sssp[j], sssp[i] })
	rng.Shuffle(len(other), func(i, j int) { other[i], other[j] = other[j], other[i] })
	// SSSP card j goes to slot (j + 1/2) n / len(sssp); the rest fill in.
	deck := make([]card, n)
	j, k := 0, 0
	for i := range deck {
		if j < len(sssp) && i == int((float64(j)+0.5)*float64(n)/float64(len(sssp))) {
			deck[i], j = sssp[j], j+1
		} else {
			deck[i], k = other[k], k+1
		}
	}

	out := make([]query, n)
	issued := map[string][]uint32{}
	for i := range out {
		q := query{kind: deck[i].kind, due: time.Duration((float64(i) + rng.Float64()) * seconds / float64(n) * float64(time.Second))}
		if rooted(q.kind) {
			pool := in.outRoots
			if q.kind == "harmonic" {
				pool = in.inRoots
			}
			same := issued[q.kind]
			switch {
			case deck[i].repeat && len(same) > 1:
				// Zipf over first-issue order: early queries stay popular.
				z := rand.NewZipf(rng, zipfS, 1, uint64(len(same)-1))
				q.sources[0], q.width = same[z.Uint64()], 1
			case deck[i].pair:
				q.sources[0], q.sources[1], q.width = pool[rng.Intn(rootPool)], pool[rng.Intn(rootPool)], 2
				for q.sources[1] == q.sources[0] {
					q.sources[1] = pool[rng.Intn(rootPool)]
				}
			default:
				q.sources[0], q.width = pool[rng.Intn(rootPool)], 1
				issued[q.kind] = append(same, q.sources[0])
			}
		}
		out[i] = q
	}
	return out
}

// body is the POST /v1/query request a client sends for q.
func (q query) body(in *input) []byte {
	req := map[string]any{"analytic": q.kind, "wait": true}
	if rooted(q.kind) {
		req["sources"] = q.roots()
	}
	if q.kind == "sssp" {
		req["max_weight"] = maxWeight
		req["weight_seed"] = in.weightSeed
	}
	b, _ := json.Marshal(req) // a map of scalars always encodes
	return b
}

// reply is the part of a /v1/query or /v1/mutate response the benchmark
// reads.
type reply struct {
	State  string               `json:"state"`
	Result *analytics.JobResult `json:"result"`
	Cached bool                 `json:"cached"`
	Error  string               `json:"error"`
}

// sent is one request as it went.
type sent struct {
	q               query
	due, send, done int64 // recorder-independent ns since the window start
	status          int
	rep             reply
	afterLastMutate bool
}

// post drives the HTTP handler in-process.
func post(srv http.Handler, path string, body []byte) (int, reply) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	var rep reply
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		rep.Error = fmt.Sprintf("decoding response: %v", err)
	}
	return rec.Code, rep
}

// serveVerify checks one serve answer against the oracles. A serve SSSP
// answer carries only its reachable count, which seq.BFS decides (edge
// weights are positive).
func serveVerify(kind string, roots []uint32, res *analytics.JobResult) func(o *oracle) error {
	return func(o *oracle) error {
		if res == nil {
			return fmt.Errorf("%s: no result", kind)
		}
		if rooted(kind) {
			if len(res.Sources) != len(roots) {
				return fmt.Errorf("%s from %v: answer names sources %v", kind, roots, res.Sources)
			}
			for i, root := range roots {
				if err := verifySource(o, kind, root, res.Sources[i]); err != nil {
					return err
				}
			}
			return nil
		}
		switch kind {
		case "wcc":
			o.whole()
			if res.NumComponents != o.wccCount || res.LargestSize != o.wccLargest {
				return fmt.Errorf("wcc: %d components, largest %d; seq.WCC %d/%d",
					res.NumComponents, res.LargestSize, o.wccCount, o.wccLargest)
			}
		case "pagerank":
			o.whole()
			want := 0.0
			for _, s := range o.pagerank {
				want = math.Max(want, s)
			}
			if math.Abs(res.MaxScore-want) > floatEps {
				return fmt.Errorf("pagerank: max %v, seq.PageRank %v", res.MaxScore, want)
			}
		case "kcore":
			k := uint64(res.MaxCoreness)
			if !kcoreNonEmpty(o.g, k) || kcoreNonEmpty(o.g, k+1) {
				return fmt.Errorf("kcore: max coreness %d is not the degeneracy", k)
			}
		}
		return nil
	}
}

// verifySource checks one source's summary of a rooted serve answer.
func verifySource(o *oracle, kind string, root uint32, ss analytics.SourceSummary) error {
	if ss.Source != root {
		return fmt.Errorf("%s from %d: answer names source %d", kind, root, ss.Source)
	}
	switch kind {
	case "bfs", "sssp":
		reached, depth := reach(o.levels(root, seq.Forward))
		if ss.Reached != reached || (kind == "bfs" && ss.Depth != depth) {
			return fmt.Errorf("%s from %d: reached %d depth %d, seq.BFS %d/%d", kind, root, ss.Reached, ss.Depth, reached, depth)
		}
	case "harmonic":
		if want := seq.Harmonic(o.g, root); !harmonicClose(ss.Score, want) {
			return fmt.Errorf("harmonic of %d: %v, seq.Harmonic %v", root, ss.Score, want)
		}
	}
	return nil
}

// runServe runs one pass of serve-read or serve-write.
func runServe(cfg *config, in *input, tr *recorder, write bool) (*measurement, error) {
	m := &measurement{layer: map[string]float64{}}
	pass := "untraced"
	if tr != nil {
		pass = "traced"
	}
	storeDir := filepath.Join(cfg.work, "store-"+pass)
	defer os.RemoveAll(storeDir)

	if tr != nil {
		if err := standaloneBuild(in, cfg.seed, m.layer); err != nil {
			return nil, err
		}
	}
	if write {
		snapMS, snapMiB, err := writeStore(in, cfg.seed, storeDir)
		if err != nil {
			return nil, err
		}
		m.layer["store.snapshot_ms"], m.layer["store.snapshot_mib"] = snapMS, snapMiB
	}

	p := serveShape.ranks
	ts := tr.traceSet(p)
	var cl *serve.Cluster
	repeats := setupRepeats
	if write {
		repeats = bootRepeats
	}
	for i := 0; i < repeats; i++ {
		if cl != nil {
			if err := cl.Close(); err != nil {
				return nil, err
			}
		}
		start := tr.now()
		t, u := time.Now(), readUsage()
		ccfg := serve.ClusterConfig{Ranks: p, Threads: rankThreads, Partition: serveShape.kind, Seed: cfg.seed, Trace: ts}
		var src *gio.Reader
		if write {
			ccfg.StoreDir, ccfg.AutoCompact, ccfg.AutoSnapshot = storeDir, compactEvery, true
			ccfg.Ranks = 0 // the manifest is authoritative
		} else {
			var err error
			if src, err = gio.Open(in.path); err != nil {
				return nil, err
			}
			ccfg.Source = src
		}
		var err error
		cl, err = serve.NewCluster(ccfg)
		if src != nil {
			src.Close()
		}
		if err != nil {
			return nil, err
		}
		m.setupS = append(m.setupS, time.Since(t).Seconds())
		m.setupCPU = append(m.setupCPU, (readUsage().cpu - u.cpu).Seconds())
		tr.add("setup", start, tr.now(), -1, int64(i))
	}
	scfg := serve.DefaultSchedConfig()
	scfg.Tracer = tr.schedTracer()
	sched := serve.NewScheduler(cl, scfg)
	sched.Start()
	srv := serve.NewServer(sched, serve.ServerConfig{})

	if !write {
		// serve-read's graph never changes, so a long-running server
		// holds its whole-graph answers in the cache; warm it with them
		// before the window instead of charging the first miss to
		// whichever seed's stream happens to ask first.
		for _, mx := range queryMix {
			if !rooted(mx.kind) {
				if status, rep := post(srv, "/v1/query", query{kind: mx.kind}.body(in)); status != http.StatusOK {
					sched.Close()
					cl.Close()
					return nil, fmt.Errorf("warming %s: %d %s", mx.kind, status, rep.Error)
				}
			}
		}
	}
	qs := stream(cfg.seed, in, offeredQPS[cfg.workload], cfg.seconds)
	reqs := make([]*sent, len(qs))
	var muts []*sent
	var wg sync.WaitGroup
	var lastMutate time.Duration // written by the mutation sender, read after wg.Wait
	t0, u0 := time.Now(), readUsage()
	base := tr.now()
	if write {
		wg.Add(1)
		go func() {
			defer wg.Done()
			period := time.Duration(float64(time.Second) / mutateHz)
			// The stream stops with the last 30% of the window to go, so
			// every compaction and snapshot has settled before the window
			// ends: the resident heap is then the same state on every run,
			// and the queries of the quiet tail run on the final epoch.
			last := time.Duration(0.7 * cfg.seconds * float64(time.Second))
			for b := 0; b < len(in.batches); b++ {
				due := time.Duration(b+1) * period
				if due > last {
					return
				}
				time.Sleep(time.Until(t0.Add(due)))
				s := &sent{due: int64(due), send: int64(time.Since(t0))}
				body, _ := json.Marshal(map[string]any{"mutations": in.batches[b], "wait": true}) // scalars and a slice of structs always encode
				s.status, s.rep = post(srv, "/v1/mutate", body)
				s.done = int64(time.Since(t0))
				muts = append(muts, s)
				lastMutate = time.Since(t0)
			}
		}()
	}
	for i, q := range qs {
		time.Sleep(time.Until(t0.Add(q.due)))
		s := &sent{q: q, due: int64(q.due), send: int64(time.Since(t0))}
		reqs[i] = s
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.status, s.rep = post(srv, "/v1/query", q.body(in))
			s.done = int64(time.Since(t0))
		}()
	}
	wg.Wait()
	m.work = readUsage().since(u0)
	m.window = cfg.seconds
	m.liveHeap = residentHeap()
	for _, s := range reqs {
		s.afterLastMutate = !write || time.Duration(s.send) > lastMutate
	}

	// Answers. serve-read's graph never changes, so every answer is
	// checked; serve-write checks the answers computed after its last
	// batch was acknowledged, then re-asks a sample of the window's
	// queries at that final epoch.
	for _, s := range reqs {
		a := &answer{kind: s.q.kind, rooted: rooted(s.q.kind), latMS: float64(s.done-s.due) / 1e6}
		a.failed = s.status != http.StatusOK || s.rep.State != string(serve.StateDone)
		if !a.failed {
			m.answered++
		}
		if !a.failed && s.afterLastMutate {
			a.verify = serveVerify(s.q.kind, s.q.roots(), s.rep.Result)
		}
		m.answers = append(m.answers, a)
	}
	// A failed batch may or may not have been applied, so the final epoch
	// and every answer at it would be unknown: the run fails instead.
	var mutLat []float64
	for b, s := range muts {
		if s.status != http.StatusOK || s.rep.State != string(serve.StateDone) {
			sched.Close()
			cl.Close()
			return nil, fmt.Errorf("mutation batch %d: %d %s %s", b, s.status, s.rep.State, s.rep.Error)
		}
		mutLat = append(mutLat, float64(s.done-s.due)/1e6)
	}
	m.extraAttempted = int64(len(muts))
	m.mutated = len(muts)
	if write {
		m.answers = append(m.answers, reask(srv, in, reqs)...)
	}

	if tr != nil {
		m.layer["serve.mutate_p50_ms"] = median(mutLat)
		if write {
			t := time.Now()
			res, err := cl.Snapshot()
			if err != nil || !res.Persisted {
				sched.Close()
				cl.Close()
				return nil, fmt.Errorf("final snapshot failed: %v %+v", err, res)
			}
			m.layer["store.snapshot_ms"] = ms(time.Since(t))
			m.layer["store.snapshot_mib"] = float64(cl.StoreStats().LastBytes) / (1 << 20)
		}
		serveLayers(m.layer, sched, cl, reqs, base, tr)
	}
	sched.Close()
	if err := cl.Close(); err != nil {
		return nil, err
	}
	if tr != nil {
		m.tracers = append(append([]*obs.Tracer(nil), ts.Tracers()[:p]...), tr.sched)
		tls := timelines(ts.Tracers()[:p])
		ws := serveWindows(tr, tls)
		jcs := make([]jobCost, len(ws))
		for i, w := range ws {
			jcs[i] = cost(w, tls)
		}
		layerFromCosts(m.layer, ws, jcs)
		if d := dropped(m.tracers); d > 0 {
			m.notes = append(m.notes, fmt.Sprintf("program tracers dropped %d events; the ledger covers the rest", d))
		}
	}
	return m, nil
}

// reask sends a sample of the window's distinct queries again once the
// mutation stream has ended, concurrently so batching applies, and
// returns their checked answers. They are outside the measured window.
func reask(srv http.Handler, in *input, reqs []*sent) []*answer {
	seen := map[query]bool{}
	var qs []query
	rootedN := 0
	for _, s := range reqs {
		q := query{kind: s.q.kind, sources: s.q.sources, width: s.q.width}
		if seen[q] || (rooted(q.kind) && rootedN >= verifyMax) {
			continue
		}
		seen[q] = true
		if rooted(q.kind) {
			rootedN++
		}
		qs = append(qs, q)
	}
	out := make([]*answer, len(qs))
	var wg sync.WaitGroup
	for i, q := range qs {
		wg.Add(1)
		go func(i int, q query) {
			defer wg.Done()
			status, rep := post(srv, "/v1/query", q.body(in))
			a := &answer{kind: q.kind, failed: status != http.StatusOK || rep.State != string(serve.StateDone)}
			if !a.failed {
				a.verify = serveVerify(q.kind, q.roots(), rep.Result)
			}
			out[i] = a
		}(i, q)
	}
	wg.Wait()
	return out
}

// writeStore cold-builds a cluster from the edge file, snapshots it into
// dir, and shuts it down: serve-write's preparation. It returns the
// snapshot's time and size.
func writeStore(in *input, seed uint64, dir string) (float64, float64, error) {
	src, err := gio.Open(in.path)
	if err != nil {
		return 0, 0, err
	}
	defer src.Close()
	cl, err := serve.NewCluster(serve.ClusterConfig{Ranks: serveShape.ranks, Threads: rankThreads, Source: src,
		Partition: serveShape.kind, Seed: seed, StoreDir: dir})
	if err != nil {
		return 0, 0, err
	}
	t := time.Now()
	res, err := cl.Snapshot()
	d := time.Since(t)
	mib := float64(cl.StoreStats().LastBytes) / (1 << 20)
	if cerr := cl.Close(); err == nil {
		err = cerr
	}
	if err == nil && !res.Persisted {
		err = fmt.Errorf("snapshot not persisted: %s", res.Detail)
	}
	return ms(d), mib, err
}

// standaloneBuild measures the gio, partition and core layers for a serve
// workload: the same edge file to serveShape graph the cluster's cold
// build performs, loaded once on a fresh rank group.
func standaloneBuild(in *input, seed uint64, layer map[string]float64) error {
	costs := [][]buildCost{make([]buildCost, serveShape.ranks)}
	err := comm.RunLocal(serveShape.ranks, func(c *comm.Comm) error {
		_, bc, err := load(core.NewCtx(c, rankThreads), in.path, serveShape.kind, seed)
		costs[0][c.Rank()] = bc
		return err
	})
	if err != nil {
		return err
	}
	buildLayers(layer, costs)
	return nil
}

// serveWindows returns the traced pass's windows: the set-ups and every
// SPMD job the dispatcher ran, each job classified by the analytic spans
// rank 0 emitted inside it (mutation jobs emit none and stay "other").
func serveWindows(tr *recorder, tls []timeline) []window {
	var ws []window
	for _, s := range tr.named("setup") {
		ws = append(ws, window{kind: "setup", lo: s.start, hi: s.end, setup: true})
	}
	for _, e := range tr.sched.Events() {
		if e.Name != serve.SpanServeJob {
			continue
		}
		w := window{kind: "other", lo: e.Start, hi: e.Start + e.Dur}
		seen := map[string]bool{}
		for _, ev := range within(tls[0].other, w.lo, w.hi) {
			seen[ev.Name] = true
		}
		for _, c := range []struct{ span, kind string }{
			{analytics.SpanHarmonicVertex, "harmonic"},
			{analytics.SpanSSSPBucket, "sssp"}, {analytics.SpanSSSPRound, "sssp"},
			{analytics.SpanPageRankIter, "pagerank"},
			{analytics.SpanWCCColorRound, "wcc"},
			{analytics.SpanKCorePeel, "kcore"},
			{analytics.SpanBFSLevel, "bfs"},
		} {
			if seen[c.span] {
				w.kind = c.kind
				break
			}
		}
		ws = append(ws, w)
	}
	return ws
}

// serveLayers fills the serve per-layer metrics from the requests, the
// dispatcher's job spans, and the counters the scheduler and cluster
// export. Request times are offsets from the window start; base is the
// recorder's clock at that start.
func serveLayers(layer map[string]float64, sched *serve.Scheduler, cl *serve.Cluster, reqs []*sent, base int64, tr *recorder) {
	var jobs []obs.Event
	batch := 0.0
	for _, e := range tr.sched.Events() {
		if e.Name == serve.SpanServeJob {
			jobs = append(jobs, e)
			batch += float64(e.Arg)
		}
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].Start+jobs[i].Dur < jobs[j].Start+jobs[j].Dur })
	if len(jobs) > 0 {
		layer["serve.batch_mean"] = batch / float64(len(jobs))
	}
	var exec, queue, httpCached, late []float64
	for i, s := range reqs {
		reqID := tr.add("request", base+s.due, base+s.done, -1, int64(i))
		tr.add("http", base+s.send, base+s.done, reqID, int64(i))
		late = append(late, float64(s.send-s.due)/1e6)
		if s.status != http.StatusOK {
			continue
		}
		if s.rep.Cached {
			httpCached = append(httpCached, float64(s.done-s.send)/1e6)
			continue
		}
		// The job that answered: the last one to end before the response.
		done := base + s.done
		k := sort.Search(len(jobs), func(k int) bool { return jobs[k].Start+jobs[k].Dur > done }) - 1
		if k < 0 || jobs[k].Start+jobs[k].Dur < base+s.send {
			continue
		}
		e := float64(jobs[k].Dur) / 1e6
		exec = append(exec, e)
		queue = append(queue, float64(s.done-s.due)/1e6-e)
	}
	layer["serve.exec_ms"] = median(exec)
	layer["serve.queue_wait_ms"] = median(queue)
	layer["serve.http_ms"] = median(httpCached)
	layer["serve.generator_late_ms"] = median(late)
	st := sched.Stats()
	if n := st.CacheHits + st.CacheMisses; n > 0 {
		layer["serve.cache_hit_ratio"] = float64(st.CacheHits) / float64(n)
	}
	layer["serve.jobs"] = float64(cl.JobsRun())
	layer["serve.rejected"] = float64(st.Rejected429 + st.Rejected503)
	ing := cl.IngestStats()
	layer["serve.compactions"] = float64(ing.Compactions)
	layer["serve.ingest_records"] = float64(ing.Records)
	if js, ok := sched.LastJobStats(); ok {
		layer["comm.retries"] = float64(js.Rank0.Retries)
	}
}
