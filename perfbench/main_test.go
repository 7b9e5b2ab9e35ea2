package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// smallConfig is a workload run on a 2^10-vertex graph.
func smallConfig(t *testing.T, workload string, seconds float64, trace bool) *config {
	t.Helper()
	return &config{
		workload: workload, seed: 7, seconds: seconds, trace: trace, logN: 10,
		work: t.TempDir(), traceOut: filepath.Join(t.TempDir(), "trace.json"), out: io.Discard,
	}
}

// TestSmoke runs every workload on a small graph and checks the result
// schema and that every answer passed the oracles.
func TestSmoke(t *testing.T) {
	for _, tc := range []struct {
		workload string
		seconds  float64
	}{
		{"ingest-1d", 1}, {"grid-2d", 1}, {"serve-read", 1},
		// Long enough for two mutation batches and one compaction.
		{"serve-write", 6},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			res, err := run(smallConfig(t, tc.workload, tc.seconds, false))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Fatalf("%d metrics, want %d", len(res.Metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit || !(got.Value > 0) {
					t.Errorf("%s = %+v, want a positive value in %s", m.name, got, m.unit)
				}
			}
		})
	}
}

// TestTracedSmoke checks that a traced run reports every per-layer metric
// and writes a Chrome trace the JSON decoder accepts.
func TestTracedSmoke(t *testing.T) {
	cfg := smallConfig(t, "serve-write", 6, true)
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%v failed=%d", res.Correct, res.Failed)
	}
	for _, m := range perLayer() {
		if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
			t.Errorf("%s = %+v, missing or not in %s", m.name, got, m.unit)
		}
	}
	for _, name := range []string{"serve.jobs", "serve.exec_ms", "serve.compactions", "store.snapshot_ms", "ledger.comp_frac"} {
		if !(res.Metrics[name].Value > 0) {
			t.Errorf("%s = %v, want positive", name, res.Metrics[name].Value)
		}
	}
	b, err := os.ReadFile(cfg.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &trace); err != nil {
		t.Fatalf("chrome trace: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
}

// TestDeterministicCounts runs the traced pass of each pipeline workload
// twice with one seed and a fixed number of calls: every count the
// program makes (bytes, rounds, halo builds, iterations) must repeat
// exactly.
func TestDeterministicCounts(t *testing.T) {
	keys := []string{"core.build.sent_mib", "gio.read_mib", "partition.edge_imbalance",
		"analytics.pagerank.iterations", "analytics.labelprop.iterations",
		"analytics.sssp.inner_rounds", "analytics.sssp.tombstones"}
	for _, a := range analyticNames {
		keys = append(keys, "comm."+a+".sent_mib", "comm."+a+".max_rank_sent_mib", "comm."+a+".rounds")
	}
	for _, a := range []string{"bfs", "sssp"} {
		keys = append(keys, "analytics."+a+".halo_builds", "analytics."+a+".pull_steps", "analytics."+a+".dense_exchanges")
	}
	for _, tc := range []struct {
		workload string
		run      workloadFunc
	}{{"ingest-1d", runIngest1D}, {"grid-2d", runGrid2D}} {
		t.Run(tc.workload, func(t *testing.T) {
			cfg := smallConfig(t, tc.workload, 60, true)
			cfg.maxCalls = 10
			in, err := prepare(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var layers [2]map[string]float64
			for i := range layers {
				m, err := tc.run(cfg, in, newRecorder())
				if err != nil {
					t.Fatal(err)
				}
				layers[i] = m.layer
			}
			nonzero := 0
			for _, k := range keys {
				if layers[0][k] != layers[1][k] {
					t.Errorf("%s: %v then %v", k, layers[0][k], layers[1][k])
				}
				if layers[0][k] != 0 {
					nonzero++
				}
			}
			if nonzero < 8 {
				t.Errorf("only %d of the deterministic counts are non-zero", nonzero)
			}
		})
	}
}

// TestPerAnswerGeometricMean pins how a pipeline averages its calls: the
// geometric mean of each analytic's median call, however many calls each
// analytic made and however long they ran.
func TestPerAnswerGeometricMean(t *testing.T) {
	u := func(cpuMS, allocKiB int) usage {
		return usage{cpu: time.Duration(cpuMS) * time.Millisecond, alloc: uint64(allocKiB) * 1024}
	}
	m := &measurement{calls: map[string][]usage{
		"labelprop": {u(3000, 10), u(5000, 10), u(4000, 10)},
		"bfs":       {u(10, 40), u(30, 40), u(20, 40), u(1000, 40), u(25, 40)},
	}}
	cpu, alloc := m.perAnswer()
	if math.Abs(cpu-math.Sqrt(4000*25)) > 1e-9 || math.Abs(alloc-20) > 1e-9 {
		t.Fatalf("perAnswer = %v ms, %v KiB; want %v ms, 20 KiB", cpu, alloc, math.Sqrt(4000*25))
	}
	m.calls["labelprop"] = []usage{u(6000, 10), u(10000, 10), u(8000, 10)}
	if slower, _ := m.perAnswer(); math.Abs(slower/cpu-math.Sqrt2) > 1e-9 {
		t.Fatalf("doubling one of two analytics moved the figure %vx, want sqrt(2)x", slower/cpu)
	}
}

// TestStreamSpreadsSSSP checks the serve stream's deal on many seeds: the
// exact number of queries, SSSP queries and SSSP pairs, and SSSP queries
// spread evenly, so that two never wait in the queue together.
func TestStreamSpreadsSSSP(t *testing.T) {
	in := &input{outRoots: make([]uint32, rootPool), inRoots: make([]uint32, rootPool)}
	for i := range in.outRoots {
		in.outRoots[i], in.inRoots[i] = uint32(i), uint32(i)
	}
	for seed := uint64(1); seed <= 20; seed++ {
		qs := stream(seed, in, 8, 20)
		last, sssp, pairs := -10, 0, 0
		for i, q := range qs {
			if q.kind != "sssp" {
				continue
			}
			if i-last < 6 {
				t.Fatalf("seed %d: SSSP queries at slots %d and %d", seed, last, i)
			}
			last, sssp = i, sssp+1
			if q.width == 2 {
				pairs++
				if q.sources[0] == q.sources[1] {
					t.Fatalf("seed %d: SSSP pair names source %d twice", seed, q.sources[0])
				}
			}
		}
		if len(qs) != 160 || sssp != 24 || pairs != 2 {
			t.Fatalf("seed %d: %d queries, %d SSSP, %d pairs; want 160, 24, 2", seed, len(qs), sssp, pairs)
		}
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the metrics the code reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the code", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the code %s [%s]",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer())
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q the code does not run", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the code", len(spec.Workloads), len(workloads))
	}
}
