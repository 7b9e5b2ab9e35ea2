package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/partition"
)

// answer is one timed operation of a workload and how to check it.
type answer struct {
	kind string
	// latMS is the answer's time: the barrier-aligned call time on the
	// pipeline workloads, or the time from the request's scheduled send to
	// its response on the serve workloads.
	latMS float64
	// rooted marks single-source answers, the population of the wall
	// query percentiles and goodput.
	rooted bool
	// failed marks an operation that produced no answer (error, 429/503,
	// expired deadline).
	failed bool
	// verify checks the answer against the oracles; nil when the answer
	// cannot be checked (a serve-write answer at an intermediate epoch).
	verify func(o *oracle) error
	// wrong is set by check.
	wrong bool
}

// usage is a reading of the process's CPU time (user and system, all
// threads) and of its cumulative heap allocation. CPU time leaves out the
// time the hypervisor runs other guests on this machine's cores, which is
// what lets the end-to-end metrics repeat on a shared VM where wall times
// swing with the neighbours' load.
type usage struct {
	cpu   time.Duration
	alloc uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return usage{cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), alloc: s[0].Value.Uint64()}
}

// since is the usage between an earlier reading and u.
func (u usage) since(from usage) usage {
	return usage{cpu: u.cpu - from.cpu, alloc: u.alloc - from.alloc}
}

// measurement is one pass of a workload.
type measurement struct {
	// setupS and setupCPU are each set-up's wall time and CPU seconds.
	setupS, setupCPU []float64
	// calls is the usage of each timed pipeline call, by analytic.
	calls map[string][]usage
	// work is everything the process did in a serve window, and answered
	// counts the window's answers.
	work     usage
	answered int
	answers  []*answer
	// window is the measured window's length in seconds.
	window   float64
	liveHeap float64
	// extraAttempted counts operations that are not answers (mutations,
	// all of which succeeded: a failed one fails the run).
	extraAttempted int64
	// layer holds the traced pass's per-layer metrics.
	layer   map[string]float64
	tracers []*obs.Tracer
	notes   []string
	// mutated is how many of the input's mutation batches were sent.
	mutated int
	// wrong counts answers the oracles rejected.
	wrong int
}

// endToEnd computes the end-to-end metrics of an untraced pass.
func (m *measurement) endToEnd() map[string]float64 {
	cpuMS, allocKiB := m.perAnswer()
	return map[string]float64{
		"setup_s":              median(m.setupCPU),
		"cpu_ms_per_answer":    cpuMS,
		"alloc_kib_per_answer": allocKiB,
		"live_heap_mib":        m.liveHeap / (1 << 20),
	}
}

// perAnswer is the CPU milliseconds and heap KiB allocated per answer. The
// answers of a serve window share one process, so there it is the
// window's total over its answers. A pipeline times its calls one by one,
// so there it is the geometric mean, over the workload's analytics, of
// each analytic's median call: every analytic weighs the same however
// long it runs or how often it is called, and a k-fold change in one of
// n analytics moves the figure k^(1/n)-fold.
func (m *measurement) perAnswer() (cpuMS, allocKiB float64) {
	if len(m.calls) == 0 {
		n := float64(m.answered)
		return ms(m.work.cpu) / n, float64(m.work.alloc) / 1024 / n
	}
	var logCPU, logAlloc float64
	for _, us := range m.calls {
		cpu := make([]float64, len(us))
		alloc := make([]float64, len(us))
		for i, u := range us {
			cpu[i], alloc[i] = ms(u.cpu), float64(u.alloc)/1024
		}
		logCPU += math.Log(median(cpu))
		logAlloc += math.Log(median(alloc))
	}
	n := float64(len(m.calls))
	return math.Exp(logCPU / n), math.Exp(logAlloc / n)
}

// wall computes the wall-clock view of a pass: what a user waits for. It
// swings with the other guests' load on a shared VM, so it is reported,
// not gated.
func (m *measurement) wall() map[string]float64 {
	byKind := map[string][]float64{}
	var rooted []float64
	good := 0
	for _, a := range m.answers {
		if a.failed || !a.rooted {
			continue
		}
		byKind[a.kind] = append(byKind[a.kind], a.latMS)
		rooted = append(rooted, a.latMS)
		if !a.wrong && a.latMS <= latencyLimitMS {
			good++
		}
	}
	return map[string]float64{
		"wall.setup_s":      median(m.setupS),
		"wall.bfs_ms":       median(byKind["bfs"]),
		"wall.harmonic_ms":  median(byKind["harmonic"]),
		"wall.query_p50_ms": quantile(rooted, 0.50),
		"wall.query_p90_ms": quantile(rooted, 0.90),
		"wall.goodput_qps":  float64(good) / m.window,
	}
}

// attempted and failed count operations, answers and mutations alike.
func (m *measurement) counts() (attempted, failed int64) {
	attempted = m.extraAttempted
	for _, a := range m.answers {
		attempted++
		if a.failed {
			failed++
		}
	}
	return attempted, failed
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between closest ranks; 0 for no data.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	f := pos - float64(lo)
	return s[lo]*(1-f) + s[lo+1]*f
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// residentHeap collects garbage and returns the live heap in bytes: what
// the workload holds (graph shards, caches, retained buffers) at the end
// of its window. Unlike a sampled peak it does not depend on which
// transient buffers a collection happens to catch.
func residentHeap() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// printHeader writes the run header: build, machine, shape, and input.
func printHeader(cfg *config, in *input) {
	sh := workloadShapes[cfg.workload]
	layout := sh.kind.String()
	if sh.kind == partition.Grid2D {
		r, c := partition.GridDims(sh.ranks)
		layout = fmt.Sprintf("2d-checkerboard %dx%d", r, c)
	}
	procs := runtime.GOMAXPROCS(0)
	over := sh.ranks*rankThreads > runtime.NumCPU()
	csr := (uint64(in.n)+1)*8 + in.m*4 // one direction: offsets + targets
	w := cfg.out
	fmt.Fprintf(w, "# perfbench %s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "# commit=%s go=%s GOMAXPROCS=%d NumCPU=%d\n", commit(), runtime.Version(), procs, runtime.NumCPU())
	fmt.Fprintf(w, "# ranks x threads=%dx%d layout=%s oversubscribed=%v transport=inproc\n",
		sh.ranks, rankThreads, layout, over)
	if rate, ok := offeredQPS[cfg.workload]; ok {
		fmt.Fprintf(w, "# open loop offered=%g q/s", rate)
		if cfg.workload == "serve-write" {
			fmt.Fprintf(w, " mutations=%g batches/s of %d records", mutateHz, batchRecords)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "# latency_limit=%d ms\n", latencyLimitMS)
	l2, l3 := cacheSizes()
	fmt.Fprintf(w, "# graph WC-sim R-MAT n=%d m=%d; CSR one direction %.1f MiB (per rank %.1f MiB) vs L2 %s per core, L3 %s\n",
		in.n, in.m, float64(csr)/(1<<20), float64(csr)/float64(sh.ranks)/(1<<20), mib(l2), mib(l3))
}

// mib formats a cache size, or "unknown" for 0.
func mib(bytes uint64) string {
	if bytes == 0 {
		return "unknown"
	}
	return fmt.Sprintf("%.1f MiB", float64(bytes)/(1<<20))
}

// commit names the source revision: the VCS revision the Go toolchain
// stamped into the binary (present when it was built inside a git
// checkout), else "unknown".
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				return s.Value[:12]
			}
		}
	}
	return "unknown"
}

// printMetrics writes the human-readable table before the JSON line.
func printMetrics(cfg *config, res *result, m *measurement) {
	w := cfg.out
	for _, n := range m.notes {
		fmt.Fprintf(w, "# note: %s\n", n)
	}
	checked, unchecked := 0, 0
	for _, a := range m.answers {
		if a.verify != nil {
			checked++
		} else if !a.failed {
			unchecked++
		}
	}
	errRate := 0.0
	if res.Attempted > 0 {
		errRate = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "# answers checked=%d unchecked=%d wrong=%d attempted=%d failed=%d error_rate=%.4f\n",
		checked, unchecked, m.wrong, res.Attempted, res.Failed, errRate)
	if !cfg.trace {
		wall := m.wall()
		for _, n := range sortedKeys(wall) {
			fmt.Fprintf(w, "# %-34s %14.4f\n", n, wall[n])
		}
	}
	for _, n := range sortedKeys(res.Metrics) {
		fmt.Fprintf(w, "%-36s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
