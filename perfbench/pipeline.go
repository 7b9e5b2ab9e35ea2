package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/analytics"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/gio"
	"repro/internal/partition"
	"repro/internal/seq"
)

// shape is how a workload lays the graph out: ranks of rankThreads
// workers each, partitioned by kind.
type shape struct {
	ranks int
	kind  partition.Kind
}

// rankThreads is every rank's worker count on every workload.
const rankThreads = 1

// serveShape is the resident cluster of the serve workloads.
var serveShape = shape{ranks: 2, kind: partition.Random}

// pipeSpec is one of the paper-pipeline workloads: the edge file is loaded
// onto an in-process rank group, the whole-graph analytics run repeats
// times each, then single-source analytics from seeded roots cycle through
// rotation for the rest of the measured window.
type pipeSpec struct {
	shape
	fixed    []string
	rotation []string
	// repeats is how many times each fixed analytic runs: its per-call
	// cost in cpu_ms_per_answer is the median of that many calls.
	repeats int
}

// multiRoots is the batch width of MultiBFS.
const multiRoots = 8

var ingestSpec = pipeSpec{
	shape:    shape{ranks: 2, kind: partition.Random},
	fixed:    []string{"pagerank", "labelprop", "wcc", "scc", "kcore"},
	rotation: []string{"bfs", "harmonic", "sssp", "bfs", "harmonic"},
	// Label Propagation takes about 2.9 s a call.
	repeats: 3,
}

var gridSpec = pipeSpec{
	shape:    shape{ranks: 4, kind: partition.Grid2D},
	fixed:    []string{"wcc", "multibfs"},
	rotation: []string{"bfs", "harmonic"},
	// The fixed calls take about 0.25 s together; a median of 3 of them
	// still moved by 20 % between runs of one seed.
	repeats: 10,
}

// workloadShapes is each workload's layout, for the run header.
var workloadShapes = map[string]shape{
	"ingest-1d":   ingestSpec.shape,
	"serve-read":  serveShape,
	"serve-write": serveShape,
	"grid-2d":     gridSpec.shape,
}

func runIngest1D(cfg *config, in *input, tr *recorder) (*measurement, error) {
	return runPipeline(cfg, in, tr, ingestSpec)
}

func runGrid2D(cfg *config, in *input, tr *recorder) (*measurement, error) {
	return runPipeline(cfg, in, tr, gridSpec)
}

// timedSource is the edge file as the program reads it, timing every
// chunk read: the gio layer seen from outside.
type timedSource struct {
	r     *gio.Reader
	ns    atomic.Int64
	bytes atomic.Uint64
}

func (s *timedSource) NumEdges() uint64 { return s.r.NumEdges() }

func (s *timedSource) ReadChunk(lo, hi uint64) (edge.List, error) {
	t := time.Now()
	l, err := s.r.ReadChunk(lo, hi)
	s.ns.Add(int64(time.Since(t)))
	s.bytes.Add((hi - lo) * gio.EdgeBytes)
	return l, err
}

// buildCost is one rank's view of one set-up.
type buildCost struct {
	readNs    int64
	readBytes uint64
	makeNs    int64
	timings   core.Timings
	sent      uint64
	edges     uint64
}

// load is the set-up every pipeline workload times: edge file to
// queryable graph (open, scan for n, partition, build).
func load(ctx *core.Ctx, path string, kind partition.Kind, seed uint64) (*core.Graph, buildCost, error) {
	var bc buildCost
	r, err := gio.Open(path)
	if err != nil {
		return nil, bc, err
	}
	defer r.Close()
	src := &timedSource{r: r}
	sentBefore := ctx.Comm.TakeStats().BytesSent
	n, err := core.ScanNumVertices(ctx, src)
	if err != nil {
		return nil, bc, err
	}
	t := time.Now()
	pt, err := core.MakePartitioner(ctx, src, kind, n, seed)
	if err != nil {
		return nil, bc, err
	}
	bc.makeNs = int64(time.Since(t))
	g, tm, err := core.Build(ctx, src, pt)
	if err != nil {
		return nil, bc, err
	}
	bc.timings = tm
	bc.sent = ctx.Comm.TakeStats().BytesSent - sentBefore
	bc.readNs, bc.readBytes = src.ns.Load(), src.bytes.Load()
	bc.edges = g.MOut()
	return g, bc, nil
}

// buildLayers turns every rank's view of every set-up into the gio,
// partition and core per-layer metrics: the median set-up's slowest-rank
// read time, total bytes read, and so on.
func buildLayers(layer map[string]float64, costs [][]buildCost) {
	var readS, readMiB, makeS, imb, tRead, tExch, tConv, sent []float64
	for _, ranks := range costs {
		var rd int64
		var bytes, sum, most, snt uint64
		for _, bc := range ranks {
			rd = max(rd, bc.readNs)
			bytes += bc.readBytes
			sum += bc.edges
			most = max(most, bc.edges)
			snt += bc.sent
		}
		readS = append(readS, float64(rd)/1e9)
		readMiB = append(readMiB, float64(bytes)/(1<<20))
		imb = append(imb, float64(most)*float64(len(ranks))/float64(sum))
		sent = append(sent, float64(snt)/(1<<20))
		r0 := ranks[0]
		makeS = append(makeS, float64(r0.makeNs)/1e9)
		tRead = append(tRead, r0.timings.Read.Seconds())
		tExch = append(tExch, r0.timings.Exchange.Seconds())
		tConv = append(tConv, r0.timings.Convert.Seconds())
	}
	layer["gio.read_s"] = median(readS)
	layer["gio.read_mib"] = median(readMiB)
	layer["partition.make_s"] = median(makeS)
	layer["partition.edge_imbalance"] = median(imb)
	layer["core.build.read_s"] = median(tRead)
	layer["core.build.exchange_s"] = median(tExch)
	layer["core.build.convert_s"] = median(tConv)
	layer["core.build.sent_mib"] = median(sent)
}

// callResult is what one rank keeps from one timed call for checking and
// for the per-layer counters.
type callResult struct {
	verify   func(o *oracle) error
	counters map[string]float64
}

// runKernel calls one analytic; the returned value is passed to capture.
func runKernel(ctx *core.Ctx, g *core.Graph, kind string, roots []uint32, w analytics.WeightFunc) (any, error) {
	switch kind {
	case "bfs":
		return analytics.BFS(ctx, g, roots[0], analytics.Forward)
	case "sssp":
		return analytics.SSSP(ctx, g, roots[0], w)
	case "harmonic":
		return analytics.Harmonic(ctx, g, roots[0])
	case "multibfs":
		return analytics.MultiBFS(ctx, g, roots, analytics.Forward)
	case "wcc":
		return analytics.WCC(ctx, g)
	case "pagerank":
		return analytics.PageRank(ctx, g, analytics.PageRankOptions{Iterations: pagerankIters, Damping: pagerankDamping})
	case "labelprop":
		return analytics.LabelProp(ctx, g, analytics.LabelPropOptions{Iterations: labelpropIters})
	case "scc":
		return analytics.LargestSCC(ctx, g)
	case "kcore":
		return analytics.KCoreApprox(ctx, g, kcoreLevels)
	}
	return nil, fmt.Errorf("unknown analytic %q", kind)
}

// capture gathers a call's per-vertex answer (collectively, outside the
// timed call) and returns rank 0's check against the oracles plus the
// per-layer counters the result carries. lpFirst pins every Label
// Propagation answer of the run to the first one: the sequential Label
// Propagation oracle is too slow for this graph, so Label Propagation is
// checked for determinism and iteration count only.
func capture(ctx *core.Ctx, g *core.Graph, kind string, roots []uint32, out any, lpFirst *uint64) (callResult, error) {
	var cr callResult
	root := roots[0]
	switch res := out.(type) {
	case *analytics.BFSResult:
		l, err := core.Gather(ctx, g, res.Levels)
		if err != nil {
			return cr, err
		}
		d := digest(l)
		cr.verify = func(o *oracle) error {
			if levelsDigest(o.levels(root, seq.Forward)) != d {
				return fmt.Errorf("bfs from %d: levels differ from seq.BFS", root)
			}
			return nil
		}
		cr.counters = traversalCounters("bfs", res.Traversal.HaloBuilds, res.Traversal.PullSteps, res.Traversal.DenseExchanges)
	case *analytics.SSSPResult:
		dist, err := core.Gather(ctx, g, res.Dist)
		if err != nil {
			return cr, err
		}
		d := digest(dist)
		cr.verify = func(o *oracle) error {
			if digest(seq.Dijkstra(o.g, root, o.w)) != d {
				return fmt.Errorf("sssp from %d: distances differ from seq.Dijkstra", root)
			}
			return nil
		}
		cr.counters = traversalCounters("sssp", res.Traversal.HaloBuilds, res.Traversal.PullSteps, res.Traversal.DenseExchanges)
		cr.counters["analytics.sssp.inner_rounds"] = float64(res.Buckets.InnerRounds)
		cr.counters["analytics.sssp.tombstones"] = float64(res.Buckets.Tombstones)
	case float64:
		cr.verify = func(o *oracle) error {
			if want := seq.Harmonic(o.g, root); !harmonicClose(res, want) {
				return fmt.Errorf("harmonic of %d: %v, seq.Harmonic %v", root, res, want)
			}
			return nil
		}
	case *analytics.MultiBFSResult:
		ds := make([]uint64, len(roots))
		for s := range roots {
			l, err := core.Gather(ctx, g, res.Levels[s])
			if err != nil {
				return cr, err
			}
			ds[s] = digest(l)
		}
		cr.verify = func(o *oracle) error {
			for s, r := range roots {
				if levelsDigest(o.levels(r, seq.Forward)) != ds[s] {
					return fmt.Errorf("multibfs source %d: levels differ from seq.BFS", r)
				}
			}
			return nil
		}
	case *analytics.WCCResult:
		l, err := core.Gather(ctx, g, res.Labels)
		if err != nil {
			return cr, err
		}
		d, count := partitionDigest(l), res.NumComponents
		cr.verify = func(o *oracle) error {
			o.whole()
			if partitionDigest(o.wcc) != d || o.wccCount != count {
				return fmt.Errorf("wcc: components differ from seq.WCC")
			}
			return nil
		}
	case *analytics.PageRankResult:
		scores, err := core.Gather(ctx, g, res.Scores)
		if err != nil {
			return cr, err
		}
		cr.verify = func(o *oracle) error {
			o.whole()
			for v, s := range scores {
				if d := s - o.pagerank[v]; d > floatEps || d < -floatEps {
					return fmt.Errorf("pagerank of %d: %v, seq.PageRank %v", v, s, o.pagerank[v])
				}
			}
			return nil
		}
		cr.counters = map[string]float64{"analytics.pagerank.iterations": float64(res.Iterations)}
	case *analytics.LabelPropResult:
		l, err := core.Gather(ctx, g, res.Labels)
		if err != nil {
			return cr, err
		}
		d, iters := digest(l), res.Iterations
		if *lpFirst == 0 {
			*lpFirst = d
		}
		first := *lpFirst
		cr.verify = func(*oracle) error {
			if d != first || iters != labelpropIters {
				return fmt.Errorf("labelprop: %d iterations, labels differ from the run's first answer", iters)
			}
			return nil
		}
		cr.counters = map[string]float64{"analytics.labelprop.iterations": float64(iters)}
	case *analytics.LargestSCCResult:
		member := make([]uint8, g.NLoc)
		for v, in := range res.InLargest {
			if in {
				member[v] = 1
			}
		}
		all, err := core.Gather(ctx, g, member)
		if err != nil {
			return cr, err
		}
		pivot, size := res.Pivot, res.Size
		cr.verify = func(o *oracle) error {
			o.whole()
			var count uint64
			for v, m := range all {
				if (m == 1) != (o.scc[v] == o.scc[pivot]) {
					return fmt.Errorf("scc: vertex %d membership differs from seq.SCC", v)
				}
				count += uint64(m)
			}
			if count != size {
				return fmt.Errorf("scc: size %d, %d members", size, count)
			}
			return nil
		}
	case *analytics.KCoreResult:
		l, err := core.Gather(ctx, g, res.CorenessUB)
		if err != nil {
			return cr, err
		}
		d := digest(l)
		cr.verify = func(o *oracle) error {
			o.whole()
			if digest(o.corenessUB) != d {
				return fmt.Errorf("kcore: bounds differ from seq.CorenessUB")
			}
			return nil
		}
	default:
		return cr, fmt.Errorf("%s: unexpected result %T", kind, out)
	}
	return cr, nil
}

func traversalCounters(a string, halo, pull, dense uint64) map[string]float64 {
	return map[string]float64{
		"analytics." + a + ".halo_builds":     float64(halo),
		"analytics." + a + ".pull_steps":      float64(pull),
		"analytics." + a + ".dense_exchanges": float64(dense),
	}
}

// runPipeline runs one pass of a pipeline workload.
func runPipeline(cfg *config, in *input, tr *recorder, ps pipeSpec) (*measurement, error) {
	m := &measurement{layer: map[string]float64{}, calls: map[string][]usage{}}
	p := ps.ranks
	ts := tr.traceSet(p)
	w := analytics.HashWeights(in.weightSeed, maxWeight)
	winLen := time.Duration(cfg.seconds * float64(time.Second))
	costs := make([][]buildCost, setupRepeats)
	for i := range costs {
		costs[i] = make([]buildCost, p)
	}
	counters := map[string][]float64{}
	retries := make([]uint64, p)
	// bounds[rank][call] is the rank's own window of each timed call.
	bounds := make([][][2]int64, p)

	err := comm.RunLocal(p, func(c *comm.Comm) error {
		rank := c.Rank()
		c.SetTracer(ts.Rank(rank))
		ctx := core.NewCtx(c, rankThreads)
		var lpFirst uint64
		var g *core.Graph
		for i := 0; i < setupRepeats; i++ {
			g = nil
			if err := c.Barrier(); err != nil {
				return err
			}
			start := tr.now()
			t, u := time.Now(), readUsage()
			var err error
			g, costs[i][rank], err = load(ctx, in.path, ps.kind, cfg.seed)
			if err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if rank == 0 {
				m.setupS = append(m.setupS, time.Since(t).Seconds())
				m.setupCPU = append(m.setupCPU, (readUsage().cpu - u.cpu).Seconds())
				tr.add("setup", start, tr.now(), -1, int64(i))
			}
		}

		id := 0
		call := func(kind string, roots []uint32, rooted bool) error {
			if err := c.Barrier(); err != nil {
				return err
			}
			start := tr.now()
			t, u := time.Now(), readUsage()
			out, err := runKernel(ctx, g, kind, roots, w)
			if err != nil {
				return fmt.Errorf("%s: %w", kind, err)
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			d := time.Since(t)
			if rank == 0 {
				m.calls[kind] = append(m.calls[kind], readUsage().since(u))
			}
			end := tr.now()
			if tr != nil {
				bounds[rank] = append(bounds[rank], [2]int64{start, end})
			}
			cr, err := capture(ctx, g, kind, roots, out, &lpFirst)
			if err != nil {
				return err
			}
			if rank == 0 {
				tr.add("call/"+kind, start, end, -1, int64(id))
				m.answers = append(m.answers, &answer{kind: kind, latMS: ms(d), rooted: rooted, verify: cr.verify})
				for k, v := range cr.counters {
					counters[k] = append(counters[k], v)
				}
			}
			id++
			return nil
		}

		// The measured window: rank 0 owns the clock and broadcasts whether
		// another rooted call fits, so every rank makes the same calls. The
		// whole-graph calls come first and count against the window; the
		// rooted calls fill the rest, at least one full rotation of them.
		var winStart time.Time
		if rank == 0 {
			winStart = time.Now()
		}
		for r := 0; r < ps.repeats; r++ {
			for _, kind := range ps.fixed {
				roots := in.outRoots[:1]
				if kind == "multibfs" {
					roots = in.outRoots[:multiRoots]
				}
				if err := call(kind, roots, false); err != nil {
					return err
				}
			}
		}
		var rootedStart time.Time
		if rank == 0 {
			rootedStart = time.Now()
		}
		for i := 0; ; i++ {
			more := uint8(0)
			if rank == 0 && (i < len(ps.rotation) || time.Since(winStart) < winLen) && (cfg.maxCalls == 0 || i < cfg.maxCalls) {
				more = 1
			}
			more, err := comm.Allreduce(c, more, comm.OpMax)
			if err != nil {
				return err
			}
			if more == 0 {
				break
			}
			kind := ps.rotation[i%len(ps.rotation)]
			pool := in.outRoots
			if kind == "harmonic" {
				pool = in.inRoots
			}
			if err := call(kind, []uint32{pool[i%rootPool]}, true); err != nil {
				return err
			}
		}
		if rank == 0 {
			m.window = time.Since(rootedStart).Seconds()
		}
		// Every rank's shard stays reachable while rank 0 weighs the heap.
		if err := c.Barrier(); err != nil {
			return err
		}
		if rank == 0 {
			m.liveHeap = residentHeap()
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		runtime.KeepAlive(g)
		retries[rank] = c.TakeStats().Retries
		return nil
	})
	if err != nil {
		return nil, err
	}
	if tr == nil {
		return m, nil
	}
	buildLayers(m.layer, costs)
	for k, v := range counters {
		m.layer[k] = median(v)
	}
	var rt uint64
	for _, r := range retries {
		rt += r
	}
	m.layer["comm.retries"] = float64(rt)
	m.tracers = ts.Tracers()[:p]
	var ws []window
	for _, s := range tr.named("setup") {
		ws = append(ws, window{kind: "setup", lo: s.start, hi: s.end, setup: true})
	}
	for _, s := range tr.named("call/") {
		w := window{kind: s.name[len("call/"):], lo: s.start, hi: s.end}
		for r := 0; r < p; r++ {
			w.per = append(w.per, bounds[r][s.req])
		}
		ws = append(ws, w)
	}
	tls := timelines(m.tracers)
	jcs := make([]jobCost, len(ws))
	for i, w := range ws {
		jcs[i] = cost(w, tls)
	}
	layerFromCosts(m.layer, ws, jcs)
	if d := dropped(m.tracers); d > 0 {
		m.notes = append(m.notes, fmt.Sprintf("program tracers dropped %d events; the ledger covers the rest", d))
	}
	return m, nil
}
