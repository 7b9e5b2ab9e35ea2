// Command perfbench is the repository's steady benchmark. It runs one of
// four workloads over a seeded WC-sim R-MAT graph written as the paper's
// binary u32-pair edge file, checks every answer against the internal/seq
// oracles outside the timed window, and prints the end-to-end metrics
// (--trace 0) or the per-layer metrics of a traced run (--trace 1). The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through perfbench/run.sh from the repository root, which builds
// this package and passes the flags through:
//
//	bash perfbench/run.sh --workload serve-read --seed 3 --seconds 12 --trace 0
//
// Every layer is measured from outside: the benchmark times its calls into
// the public functions of gio, partition, core, comm, analytics, serve and
// store, and reads the counters those packages already export. It changes
// no program code. See README.md for each metric, its unit, and which
// per-layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Latency limit of wall.goodput_qps: an answer counts as good when it is
// correct and arrives within this many milliseconds of its scheduled send
// time. Fixed once from the serve-read p95 measured at the commit that
// introduced the benchmark (see README.md).
const latencyLimitMS = 250

// Offered load of the serve workloads in queries per second, open loop.
// Each is about a third of the workload's capacity (the highest rate
// without a growing backlog) measured at the commit that introduced the
// benchmark. At two thirds, and still at one half, a run on which the
// hypervisor took a large share of the CPU saturated the cluster. The
// mutation stream makes serve-write's queries slower, so its capacity is
// lower. See README.md.
var offeredQPS = map[string]float64{"serve-read": 8, "serve-write": 4}

// setupRepeats is how many times each run performs its set-up; setup_s is
// their median.
const setupRepeats = 5

// bootRepeats replaces setupRepeats for serve-write's boot from the store:
// a boot takes about 25 ms, and the CPU of one boot varies by a factor of
// two from boot to boot, so a median of five moved by 35 % between runs.
const bootRepeats = 25

// metricSpec is one metric the benchmark reports: BENCHMARK.json lists the
// same names and units.
type metricSpec struct {
	name string
	unit string
}

// endToEnd are the gated metrics: what the system costs its operator
// per answer, measured so that they repeat on a shared VM. Every workload
// reports every one of them; README.md defines each per workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"cpu_ms_per_answer", "ms"},
	{"alloc_kib_per_answer", "KiB"},
	{"live_heap_mib", "MiB"},
}

// wallMetrics are the wall-clock metrics a user waits for, reported with
// the per-layer view.
var wallMetrics = []metricSpec{
	{"wall.setup_s", "s"},
	{"wall.bfs_ms", "ms"},
	{"wall.harmonic_ms", "ms"},
	{"wall.query_p50_ms", "ms"},
	{"wall.query_p90_ms", "ms"},
	{"wall.goodput_qps", "1/s"},
}

// analyticNames are the analytics the per-layer view reports one by one,
// never summed.
var analyticNames = []string{"bfs", "sssp", "harmonic", "multibfs", "wcc", "pagerank", "labelprop", "scc", "kcore"}

// perLayer returns the traced run's metrics in report order.
func perLayer() []metricSpec {
	m := append([]metricSpec(nil), wallMetrics...)
	m = append(m, []metricSpec{
		{"gio.read_s", "s"}, {"gio.read_mib", "MiB"},
		{"partition.make_s", "s"}, {"partition.edge_imbalance", "ratio"},
		{"core.build.read_s", "s"}, {"core.build.exchange_s", "s"},
		{"core.build.convert_s", "s"}, {"core.build.sent_mib", "MiB"},
	}...)
	for _, a := range analyticNames {
		m = append(m,
			metricSpec{"comm." + a + ".sent_mib", "MiB"},
			metricSpec{"comm." + a + ".max_rank_sent_mib", "MiB"},
			metricSpec{"comm." + a + ".rounds", "count"},
			metricSpec{"comm." + a + ".wire_ms", "ms"},
			metricSpec{"comm." + a + ".wait_ms", "ms"},
			metricSpec{"analytics." + a + ".comp_ms", "ms"},
			metricSpec{"analytics." + a + ".wall_ms", "ms"},
		)
	}
	return append(m,
		metricSpec{"comm.retries", "count"},
		metricSpec{"analytics.bfs.halo_builds", "count"},
		metricSpec{"analytics.bfs.pull_steps", "count"},
		metricSpec{"analytics.bfs.dense_exchanges", "count"},
		metricSpec{"analytics.sssp.halo_builds", "count"},
		metricSpec{"analytics.sssp.pull_steps", "count"},
		metricSpec{"analytics.sssp.dense_exchanges", "count"},
		metricSpec{"analytics.sssp.inner_rounds", "count"},
		metricSpec{"analytics.sssp.tombstones", "count"},
		metricSpec{"analytics.pagerank.iterations", "count"},
		metricSpec{"analytics.labelprop.iterations", "count"},
		metricSpec{"serve.queue_wait_ms", "ms"},
		metricSpec{"serve.exec_ms", "ms"},
		metricSpec{"serve.http_ms", "ms"},
		metricSpec{"serve.batch_mean", "req/job"},
		metricSpec{"serve.cache_hit_ratio", "ratio"},
		metricSpec{"serve.jobs", "count"},
		metricSpec{"serve.rejected", "count"},
		metricSpec{"serve.generator_late_ms", "ms"},
		metricSpec{"serve.ingest_records", "count"},
		metricSpec{"serve.compactions", "count"},
		metricSpec{"serve.mutate_p50_ms", "ms"},
		metricSpec{"store.snapshot_ms", "ms"},
		metricSpec{"store.snapshot_mib", "MiB"},
		metricSpec{"ledger.comp_frac", "frac"},
		metricSpec{"ledger.wire_frac", "frac"},
		metricSpec{"ledger.wait_frac", "frac"},
		metricSpec{"ledger.setup_frac", "frac"},
		metricSpec{"ledger.unattributed_frac", "frac"},
		metricSpec{"trace.overhead_frac", "frac"},
	)
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// logN sizes the graph: 2^logN vertices, 36 edges per vertex. The
	// benchmark always runs at 16; tests shrink it.
	logN uint
	// maxCalls, when positive, ends a pipeline window after that many
	// rooted calls, so tests can compare two passes call for call.
	maxCalls int
	// work is the scratch directory for the edge file and the store.
	work string
	// traceOut is where a traced run writes its Chrome trace.
	traceOut string
	// out receives the human-readable report lines.
	out io.Writer
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloadFunc runs one workload's measured pass. It returns the raw
// measurements; the caller turns them into metrics.
type workloadFunc func(cfg *config, in *input, tr *recorder) (*measurement, error)

var workloads = map[string]workloadFunc{
	"ingest-1d":   runIngest1D,
	"serve-read":  runServeRead,
	"serve-write": runServeWrite,
	"grid-2d":     runGrid2D,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: ingest-1d, serve-read, serve-write, grid-2d")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed (graph, roots, arrivals, mutations)")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&traceFlag, "trace", 0, "1 prints the per-layer metrics of a traced run")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "Chrome trace path of a traced run (default .bench_build/trace/<workload>-<seed>.json)")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.logN = 16
	cfg.out = os.Stdout
	if traceFlag != 0 && traceFlag != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag))
	}
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-%d.json", cfg.workload, cfg.seed))
	}
	work, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fail(fmt.Errorf("creating work directory: %w", err))
	}
	cfg.work = work
	res, err := run(&cfg)
	if rmErr := os.RemoveAll(work); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// run prepares the input, runs the workload (twice when traced: untraced
// for the overhead baseline, then traced), checks every answer, and
// assembles the result.
func run(cfg *config) (*result, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, names)
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	in, err := prepare(cfg)
	if err != nil {
		return nil, fmt.Errorf("preparing input: %w", err)
	}
	printHeader(cfg, in)

	meas, err := measure(wl, cfg, in, nil)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metric{}}
	if cfg.trace {
		tr := newRecorder()
		traced, err := measure(wl, cfg, in, tr)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		layer := traced.layer
		for k, v := range meas.wall() {
			layer[k] = v
		}
		base, withTrace := meas.endToEnd()["cpu_ms_per_answer"], traced.endToEnd()["cpu_ms_per_answer"]
		layer["trace.overhead_frac"] = withTrace/base - 1
		for _, m := range perLayer() {
			res.Metrics[m.name] = metric{Value: layer[m.name], Unit: m.unit}
		}
		if err := writeChrome(cfg.traceOut, traced.tracers, tr); err != nil {
			return nil, err
		}
		fmt.Fprintf(cfg.out, "# chrome trace: %s\n", cfg.traceOut)
		meas.answers = append(meas.answers, traced.answers...)
		meas.extraAttempted += traced.extraAttempted
		meas.wrong += traced.wrong
		meas.notes = append(meas.notes, traced.notes...)
	} else {
		e2e := meas.endToEnd()
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: e2e[m.name], Unit: m.unit}
		}
	}
	attempted, failed := meas.counts()
	res.Attempted = attempted
	res.Failed = failed + int64(meas.wrong)
	res.Correct = meas.wrong == 0
	printMetrics(cfg, res, meas)
	return res, nil
}

// measure runs one pass of a workload and checks its answers.
func measure(wl workloadFunc, cfg *config, in *input, tr *recorder) (*measurement, error) {
	m, err := wl(cfg, in, tr)
	if err != nil {
		return nil, err
	}
	if err := m.check(in); err != nil {
		return nil, fmt.Errorf("checking answers: %w", err)
	}
	return m, nil
}
