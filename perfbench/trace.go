package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// traceCap is the per-tracer ring size of a traced run: a 20 s window
// emits a few tens of thousands of spans per rank.
const traceCap = 1 << 18

// Lane ids of the Chrome export: the program's ranks keep their rank ids,
// the scheduler's dispatcher is schedLane, and the benchmark's own spans
// start at benchLane.
const (
	schedLane = 99
	benchLane = 100
)

// span is one benchmark-side span around a call into a module. Times are
// nanoseconds since the recorder's epoch, which is also the epoch of the
// program tracers the recorder hands out, so both timelines align.
type span struct {
	name       string
	start, end int64
	parent     int   // index of the parent span, -1 at top level
	req        int64 // request (or call) id the span belongs to
}

// recorder keeps the benchmark's spans in memory and owns the program
// tracers of a traced run. A nil recorder records nothing: the untraced
// pass runs the same code with every hook disabled.
type recorder struct {
	ts    *obs.TraceSet
	epoch time.Time
	sched *obs.Tracer

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	ts := obs.NewTraceSet(traceCap)
	ts.Ensure(1)
	// The trace set keeps its epoch private; recover it from a reading of
	// its clock so the benchmark's spans share the program's time base.
	epoch := time.Now().Add(-time.Duration(ts.Rank(0).Now()))
	return &recorder{ts: ts, epoch: epoch}
}

func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// traceSet returns the per-rank program tracers for a group of p ranks.
func (r *recorder) traceSet(p int) *obs.TraceSet {
	if r == nil {
		return nil
	}
	r.ts.Ensure(p)
	return r.ts
}

// schedTracer returns the tracer handed to the scheduler's dispatcher.
func (r *recorder) schedTracer() *obs.Tracer {
	if r == nil {
		return nil
	}
	if r.sched == nil {
		r.sched = obs.NewTracer(schedLane, traceCap, r.epoch)
	}
	return r.sched
}

// add records a finished span and returns its index.
func (r *recorder) add(name string, start, end int64, parent int, req int64) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, start: start, end: end, parent: parent, req: req})
	return len(r.spans) - 1
}

// named returns the spans whose name has the prefix.
func (r *recorder) named(prefix string) []span {
	var out []span
	for _, s := range r.spans {
		if strings.HasPrefix(s.name, prefix) {
			out = append(out, s)
		}
	}
	return out
}

// interval is a half-open [lo, hi) stretch of one rank's timeline.
type interval struct{ lo, hi int64 }

// window is one top-level unit of work on rank 0's timeline: a set-up, a
// pipeline call, or a serve job.
type window struct {
	kind   string
	lo, hi int64
	setup  bool
	// per, when set, is each rank's own [lo, hi) for the same unit of
	// work: a rank leaves a barrier a little before or after rank 0, and
	// its rounds must be counted against its own bounds.
	per [][2]int64
}

// jobCost is what the program's spans say about one window.
type jobCost struct {
	kind                   string
	wallMS                 float64
	compMS, wireMS, waitMS float64
	unattrMS               float64
	sentMiB, maxRankMiB    float64
	rounds                 int
}

// timeline is one rank's program events sorted by end time.
type timeline struct {
	comm  []obs.Event
	other []obs.Event
}

// timelines splits each rank tracer's events into collective rounds and
// the analytics' own spans.
func timelines(tracers []*obs.Tracer) []timeline {
	out := make([]timeline, len(tracers))
	for r, t := range tracers {
		for _, e := range t.Events() {
			if strings.HasPrefix(e.Name, "comm/") {
				out[r].comm = append(out[r].comm, e)
			} else {
				out[r].other = append(out[r].other, e)
			}
		}
		for _, es := range [][]obs.Event{out[r].comm, out[r].other} {
			sort.Slice(es, func(i, j int) bool { return es[i].Start+es[i].Dur < es[j].Start+es[j].Dur })
		}
	}
	return out
}

// within returns the events ending inside (lo, hi], clipped to start no
// earlier than lo.
func within(es []obs.Event, lo, hi int64) []obs.Event {
	i := sort.Search(len(es), func(i int) bool { return es[i].Start+es[i].Dur > lo })
	var out []obs.Event
	for ; i < len(es) && es[i].Start+es[i].Dur <= hi; i++ {
		e := es[i]
		if e.Start < lo {
			e.Dur -= lo - e.Start
			e.Start = lo
		}
		out = append(out, e)
	}
	return out
}

// union merges events into sorted disjoint intervals.
func union(es []obs.Event) []interval {
	iv := make([]interval, 0, len(es))
	for _, e := range es {
		iv = append(iv, interval{e.Start, e.Start + e.Dur})
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var out []interval
	for _, x := range iv {
		if n := len(out); n > 0 && x.lo <= out[n-1].hi {
			if x.hi > out[n-1].hi {
				out[n-1].hi = x.hi
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

func length(iv []interval) int64 {
	var t int64
	for _, x := range iv {
		t += x.hi - x.lo
	}
	return t
}

// overlap is the total length two sorted disjoint interval lists share.
func overlap(a, b []interval) int64 {
	var t int64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		lo, hi := max(a[i].lo, b[j].lo), min(a[i].hi, b[j].hi)
		if hi > lo {
			t += hi - lo
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return t
}

// cost attributes one window from the rank timelines. Rank 0's window
// splits into comp (covered by an analytic span and no collective), wire
// and wait (inside collective rounds), and the unattributed rest. Wait is
// derived from the lockstep rounds: the k-th round of every rank is the
// same round, so a rank waits from its own arrival until the last rank's.
func cost(w window, tls []timeline) jobCost {
	jc := jobCost{kind: w.kind, wallMS: float64(w.hi-w.lo) / 1e6}
	rounds := make([][]obs.Event, len(tls))
	nRounds := -1
	maxSent := uint64(0)
	for r, tl := range tls {
		lo, hi := w.lo, w.hi
		if w.per != nil {
			lo, hi = w.per[r][0], w.per[r][1]
		}
		rounds[r] = within(tl.comm, lo, hi)
		sort.Slice(rounds[r], func(i, j int) bool { return rounds[r][i].Start < rounds[r][j].Start })
		var sent uint64
		for _, e := range rounds[r] {
			sent += uint64(e.Arg)
		}
		jc.sentMiB += float64(sent) / (1 << 20)
		maxSent = max(maxSent, sent)
		if nRounds < 0 || len(rounds[r]) < nRounds {
			nRounds = len(rounds[r])
		}
	}
	jc.maxRankMiB = float64(maxSent) / (1 << 20)
	if len(tls) == 0 {
		return jc
	}
	var wait int64
	for k := 0; k < nRounds; k++ {
		last := int64(0)
		for r := range rounds {
			last = max(last, rounds[r][k].Start)
		}
		e := rounds[0][k]
		wait += min(max(last-e.Start, 0), e.Dur)
	}
	c := union(rounds[0])
	p := union(within(tls[0].other, w.lo, w.hi))
	commNs := length(c)
	jc.rounds = len(rounds[0])
	jc.waitMS = float64(wait) / 1e6
	jc.wireMS = float64(commNs-wait) / 1e6
	jc.compMS = float64(length(p)-overlap(p, c)) / 1e6
	jc.unattrMS = jc.wallMS - float64(commNs+length(p)-overlap(p, c))/1e6
	return jc
}

// layerFromCosts fills the per-analytic comm and analytics metrics (the
// median over that analytic's windows, never a sum across analytics) and
// the workload's ledger.
func layerFromCosts(layer map[string]float64, ws []window, costs []jobCost) {
	per := map[string][]jobCost{}
	var setup, comp, wire, wait, unattr float64
	for i, jc := range costs {
		if ws[i].setup {
			setup += jc.wallMS
			continue
		}
		per[jc.kind] = append(per[jc.kind], jc)
		comp += jc.compMS
		wire += jc.wireMS
		wait += jc.waitMS
		unattr += jc.unattrMS
	}
	for _, a := range analyticNames {
		jcs := per[a]
		if len(jcs) == 0 {
			continue
		}
		pick := func(f func(jobCost) float64) float64 {
			xs := make([]float64, len(jcs))
			for i, jc := range jcs {
				xs[i] = f(jc)
			}
			return median(xs)
		}
		layer["comm."+a+".sent_mib"] = pick(func(j jobCost) float64 { return j.sentMiB })
		layer["comm."+a+".max_rank_sent_mib"] = pick(func(j jobCost) float64 { return j.maxRankMiB })
		layer["comm."+a+".rounds"] = pick(func(j jobCost) float64 { return float64(j.rounds) })
		layer["comm."+a+".wire_ms"] = pick(func(j jobCost) float64 { return j.wireMS })
		layer["comm."+a+".wait_ms"] = pick(func(j jobCost) float64 { return j.waitMS })
		layer["analytics."+a+".comp_ms"] = pick(func(j jobCost) float64 { return j.compMS })
		layer["analytics."+a+".wall_ms"] = pick(func(j jobCost) float64 { return j.wallMS })
	}
	total := setup + comp + wire + wait + unattr
	if total > 0 {
		layer["ledger.setup_frac"] = setup / total
		layer["ledger.comp_frac"] = comp / total
		layer["ledger.wire_frac"] = wire / total
		layer["ledger.wait_frac"] = wait / total
		layer["ledger.unattributed_frac"] = unattr / total
	}
}

// writeChrome exports the traced run as Chrome trace_event JSON through
// the program's own encoder: the rank lanes and the dispatcher lane as
// recorded, plus the benchmark's spans on lanes from benchLane up (each
// span's arg is its request id; a child shares its parent's lane).
func writeChrome(path string, program []*obs.Tracer, r *recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("chrome trace: %w", err)
	}
	order := make([]int, len(r.spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return r.spans[order[a]].start < r.spans[order[b]].start })
	lane := make([]int, len(r.spans))
	var laneEnd []int64
	for _, i := range order {
		s := r.spans[i]
		if s.parent >= 0 {
			lane[i] = lane[s.parent]
			continue
		}
		l := 0
		for l < len(laneEnd) && laneEnd[l] > s.start {
			l++
		}
		if l == len(laneEnd) {
			laneEnd = append(laneEnd, 0)
		}
		laneEnd[l] = s.end
		lane[i] = l
	}
	bench := make([]*obs.Tracer, len(laneEnd))
	for l := range bench {
		bench[l] = obs.NewTracer(benchLane+l, len(r.spans)+1, r.epoch)
	}
	// Parents are emitted before their children so each lane's events
	// stay ordered by start time.
	for _, i := range order {
		s := r.spans[i]
		bench[lane[i]].Emit(s.name, s.start, s.end-s.start, s.req)
	}
	tracers := append(append([]*obs.Tracer(nil), program...), bench...)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("chrome trace: %w", err)
	}
	if err := obs.WriteChrome(f, tracers); err != nil {
		f.Close()
		return fmt.Errorf("chrome trace: %w", err)
	}
	return f.Close()
}

// dropped sums the program tracers' overwritten events.
func dropped(tracers []*obs.Tracer) uint64 {
	var d uint64
	for _, t := range tracers {
		d += t.Dropped()
	}
	return d
}
