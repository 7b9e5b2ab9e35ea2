package serve

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/gen"
	"repro/internal/partition"
)

// Differential rebuild-equivalence battery for streaming ingest: a cluster
// that reached a graph through /v1/mutate-style batches must answer every
// analytic byte-identically to a cluster built from scratch from the
// mutated edge list. Both clusters share the partitioner (Random and
// VertexBlock depend only on (n, seed), not on the edge list, so the
// shards line up) and the rebuilt cluster is built in canonical adjacency
// order — the order merged overlays always have — so even summation-order-
// sensitive kernels (PageRank, weighted PageRank) must match bitwise.

// ingestSpec is the shared base graph for the ingest batteries.
var ingestSpec = gen.Spec{Kind: gen.RMAT, NumVertices: 300, NumEdges: 2000, Seed: 41}

// ingestQueries covers every analytic job kind once.
func ingestQueries() []*analytics.Job {
	mk := func(j analytics.Job) *analytics.Job {
		cp := j
		cp.Normalize()
		return &cp
	}
	return []*analytics.Job{
		mk(analytics.Job{Analytic: analytics.JobBFS, Sources: []uint32{3}}),
		mk(analytics.Job{Analytic: analytics.JobSSSP, Sources: []uint32{5}, MaxWeight: 9, WeightSeed: 17}),
		mk(analytics.Job{Analytic: analytics.JobWCC}),
		mk(analytics.Job{Analytic: analytics.JobPageRank, Iterations: 8}),
		mk(analytics.Job{Analytic: analytics.JobKCore}),
		mk(analytics.Job{Analytic: analytics.JobPageRankWeighted, Iterations: 6, MaxWeight: 7, WeightSeed: 4}),
		mk(analytics.Job{Analytic: analytics.JobLabelProp, Iterations: 6}),
		mk(analytics.Job{Analytic: analytics.JobHarmonic, Sources: []uint32{11}}),
	}
}

// ingestSchedule builds an adversarial batch sequence against base:
// duplicate inserts, deletes of missing edges, deletes of live edges with
// re-inserts, and self-loop churn. Returns the batches and the oracle edge
// list after each batch.
func ingestSchedule(seed int64, n uint32, base edge.List, batches, perBatch int) ([]edge.Batch, []edge.List) {
	rng := rand.New(rand.NewSource(seed))
	cur := append(edge.List(nil), base...)
	var out []edge.Batch
	var oracles []edge.List
	for b := 0; b < batches; b++ {
		var batch edge.Batch
		for len(batch) < perBatch {
			switch rng.Intn(8) {
			case 0, 1, 2:
				batch = append(batch, edge.Mutation{Op: edge.OpInsert, Src: uint32(rng.Intn(int(n))), Dst: uint32(rng.Intn(int(n)))})
			case 3, 4:
				if cur.Len() > 0 {
					i := rng.Intn(cur.Len())
					m := edge.Mutation{Op: edge.OpDelete, Src: cur.Src(i), Dst: cur.Dst(i)}
					batch = append(batch, m)
					if rng.Intn(2) == 0 {
						batch = append(batch, edge.Mutation{Op: edge.OpInsert, Src: m.Src, Dst: m.Dst})
					}
				}
			case 5:
				batch = append(batch, edge.Mutation{Op: edge.OpDelete, Src: uint32(rng.Intn(int(n))), Dst: uint32(rng.Intn(int(n)))})
			case 6:
				if cur.Len() > 0 {
					i := rng.Intn(cur.Len())
					batch = append(batch, edge.Mutation{Op: edge.OpInsert, Src: cur.Src(i), Dst: cur.Dst(i)})
				}
			case 7:
				v := uint32(rng.Intn(int(n)))
				op := edge.OpInsert
				if rng.Intn(2) == 0 {
					op = edge.OpDelete
				}
				batch = append(batch, edge.Mutation{Op: op, Src: v, Dst: v})
			}
		}
		cur = batch.ApplyTo(cur)
		out = append(out, batch)
		oracles = append(oracles, cur)
	}
	return out, oracles
}

// ingestBase generates the shared base edge list once per test.
func ingestBase(t *testing.T) edge.List {
	t.Helper()
	base, err := ingestSpec.GenerateAll()
	if err != nil {
		t.Fatalf("generating base edges: %v", err)
	}
	return base
}

// newIngestCluster builds a cluster over an explicit edge list with the
// shared ingest geometry.
func newIngestCluster(t *testing.T, list edge.List, kind partition.Kind, canonical bool, transports TransportFactory) *Cluster {
	t.Helper()
	cl, err := NewCluster(ClusterConfig{
		Ranks:       4,
		Threads:     1,
		Source:      core.ListSource{Edges: list},
		Partition:   kind,
		Seed:        7,
		Epoch:       1,
		Replicas:    2,
		NumVertices: ingestSpec.NumVertices,
		Canonical:   canonical,
		Transports:  transports,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(func() {
		if err := cl.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return cl
}

// submitWait pushes one job through a running scheduler and waits for it.
func submitWait(t *testing.T, s *Scheduler, job *analytics.Job) RequestView {
	t.Helper()
	cp := *job
	id, err := s.Submit(&cp, time.Now().Add(2*time.Minute))
	if err != nil {
		t.Fatalf("submit %s: %v", job.Analytic, err)
	}
	return waitDone(t, s, id)
}

// mutateAll streams every batch through the scheduler, asserting each ack
// advances the epoch and reports the batch's record count.
func mutateAll(t *testing.T, cl *Cluster, s *Scheduler, batches []edge.Batch, oracles []edge.List) {
	t.Helper()
	for bi, batch := range batches {
		before := cl.Epoch()
		view := submitWait(t, s, &analytics.Job{Analytic: analytics.JobMutate, Mutations: batch})
		if view.State != StateDone {
			t.Fatalf("batch %d: state %s (err %q)", bi, view.State, view.Err)
		}
		if view.Result.Applied != uint64(len(batch)) {
			t.Fatalf("batch %d: applied %d, want %d", bi, view.Result.Applied, len(batch))
		}
		if view.Result.Epoch <= before {
			t.Fatalf("batch %d: epoch %d did not advance past %d", bi, view.Result.Epoch, before)
		}
		if got, want := cl.NumEdges(), uint64(oracles[bi].Len()); got != want {
			t.Fatalf("batch %d: NumEdges %d, oracle %d", bi, got, want)
		}
	}
}

// answersOn runs every query and returns its canonical bytes.
func answersOn(t *testing.T, s *Scheduler, queries []*analytics.Job) [][]byte {
	t.Helper()
	out := make([][]byte, len(queries))
	for i, q := range queries {
		view := submitWait(t, s, q)
		if view.State != StateDone {
			t.Fatalf("query %d (%s): state %s (err %q)", i, q.Analytic, view.State, view.Err)
		}
		out[i] = view.Result.Canonical()
	}
	return out
}

// TestServeDifferentialRebuildEquivalence is the acceptance battery: after
// a seeded mutation schedule streamed through the scheduler, every job
// kind's answer on the mutated cluster is byte-identical to the same job
// on a cluster rebuilt from scratch from the mutated edge list — on the
// in-process transport for two partitionings, and on the TCP mesh. A
// compaction cycle then swaps the merged overlays in as new bases and the
// answers must not change.
func TestServeDifferentialRebuildEquivalence(t *testing.T) {
	base := ingestBase(t)
	batches, oracles := ingestSchedule(13, ingestSpec.NumVertices, base, 3, 50)
	final := oracles[len(oracles)-1]
	queries := ingestQueries()

	cases := []struct {
		name string
		kind partition.Kind
		tf   func(t *testing.T) TransportFactory
	}{
		{"inproc/random", partition.Random, nil},
		{"inproc/vertexblock", partition.VertexBlock, nil},
		{"tcp/random", partition.Random, tcpFactory},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var mutTF, rebTF TransportFactory
			if tc.tf != nil {
				mutTF, rebTF = tc.tf(t), tc.tf(t)
			}
			mut := newIngestCluster(t, base, tc.kind, false, mutTF)
			ms := NewScheduler(mut, chaosSchedConfig())
			ms.Start()
			defer ms.Close()
			mutateAll(t, mut, ms, batches, oracles)
			got := answersOn(t, ms, queries)

			reb := newIngestCluster(t, final, tc.kind, true, rebTF)
			rs := NewScheduler(reb, chaosSchedConfig())
			rs.Start()
			defer rs.Close()
			if mut.NumVertices() != reb.NumVertices() {
				t.Fatalf("vertex counts diverged: mutated %d, rebuilt %d", mut.NumVertices(), reb.NumVertices())
			}
			if mut.NumEdges() != reb.NumEdges() {
				t.Fatalf("edge counts diverged: mutated %d, rebuilt %d", mut.NumEdges(), reb.NumEdges())
			}
			want := answersOn(t, rs, queries)
			for i := range queries {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("%s: mutated cluster answered %s, rebuilt answered %s",
						queries[i].Analytic, got[i], want[i])
				}
			}

			// Compact: the merged overlays become the new bases. The logical
			// graph is unchanged, so every answer must survive the swap
			// byte-for-byte, while the epoch advances.
			epochBefore := mut.Epoch()
			res, err := mut.Compact()
			if err != nil {
				t.Fatalf("Compact: %v", err)
			}
			if !res.Compacted || res.Applied != uint64(mut.Size()) {
				t.Fatalf("compact result %+v, want full swap of %d shards", res, mut.Size())
			}
			if mut.Epoch() <= epochBefore {
				t.Fatalf("epoch %d did not advance past %d on compaction", mut.Epoch(), epochBefore)
			}
			after := answersOn(t, ms, queries)
			for i := range queries {
				if !bytes.Equal(after[i], got[i]) {
					t.Fatalf("%s: answer changed across compaction: %s -> %s",
						queries[i].Analytic, got[i], after[i])
				}
			}
		})
	}
}

// TestFailoverServesMutatedBackup pins the replica filter-apply path: after
// streaming mutations, killing a host promotes its sibling's backup — which
// was kept current without joining the routing exchanges — and every answer
// stays byte-identical to the pre-failover mutated cluster.
func TestFailoverServesMutatedBackup(t *testing.T) {
	base := ingestBase(t)
	batches, oracles := ingestSchedule(29, ingestSpec.NumVertices, base, 2, 40)
	queries := ingestQueries()

	cl := newIngestCluster(t, base, partition.Random, false, nil)
	s := NewScheduler(cl, chaosSchedConfig())
	s.Start()
	defer s.Close()
	mutateAll(t, cl, s, batches, oracles)
	healthy := answersOn(t, s, queries)
	s.Close()

	if err := cl.Kill(1); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	// A fresh scheduler's cache is cold, so every post-kill query reaches
	// the cluster: the first one consumes the abort and drives the
	// failover, the promoted backup answers the rest.
	s2 := NewScheduler(cl, chaosSchedConfig())
	s2.Start()
	defer s2.Close()
	degraded := answersOn(t, s2, queries)
	if cl.Generation() == 0 {
		t.Fatal("kill did not advance the generation")
	}
	for i := range queries {
		if !bytes.Equal(degraded[i], healthy[i]) {
			t.Fatalf("%s: promoted backup diverged:\n  degraded: %s\n  healthy:  %s",
				queries[i].Analytic, degraded[i], healthy[i])
		}
	}
	if got, want := cl.NumEdges(), uint64(oracles[len(oracles)-1].Len()); got != want {
		t.Fatalf("NumEdges after failover %d, oracle %d", got, want)
	}
}

// TestMutateReplayIsExactlyOnce pins the replay watermark end to end: re-
// running a mutate job with an already-applied MutationID acknowledges
// without changing the graph — the failover requeue path replays batches
// through exactly this door.
func TestMutateReplayIsExactlyOnce(t *testing.T) {
	base := ingestBase(t)
	cl := newIngestCluster(t, base, partition.Random, false, nil)

	batch := edge.Batch{
		{Op: edge.OpInsert, Src: 1, Dst: 2},
		{Op: edge.OpDelete, Src: base.Src(0), Dst: base.Dst(0)},
	}
	job := &analytics.Job{Analytic: analytics.JobMutate, Mutations: batch}
	res, _, err := cl.Run(job)
	if err != nil {
		t.Fatalf("mutate: %v", err)
	}
	if job.MutationID == 0 {
		t.Fatal("Run did not assign a mutation id")
	}
	mAfter := cl.NumEdges()

	// Same job pointer, same id: the replica watermarks skip it whole.
	res2, _, err := cl.Run(job)
	if err != nil {
		t.Fatalf("replayed mutate: %v", err)
	}
	if cl.NumEdges() != mAfter {
		t.Fatalf("replay changed edge count: %d -> %d", mAfter, cl.NumEdges())
	}
	if res2.Applied != res.Applied {
		t.Fatalf("replay ack applied %d, want %d", res2.Applied, res.Applied)
	}

	// A fresh id with the same records is NOT a replay, but the batch is
	// idempotent by semantics (insert of a live edge, delete of a missing
	// edge are no-ops), so the graph still must not change.
	job2 := &analytics.Job{Analytic: analytics.JobMutate, Mutations: batch}
	if _, _, err := cl.Run(job2); err != nil {
		t.Fatalf("re-submitted mutate: %v", err)
	}
	if cl.NumEdges() != mAfter {
		t.Fatalf("idempotent re-submit changed edge count: %d -> %d", mAfter, cl.NumEdges())
	}
}

// TestCompactIsSkippedWhenRaced pins the version guard: a compact job
// whose CompactVersion no longer matches the overlay version (a batch
// landed after the merge) swaps nothing on any shard.
func TestCompactIsSkippedWhenRaced(t *testing.T) {
	base := ingestBase(t)
	cl := newIngestCluster(t, base, partition.Random, false, nil)

	b1 := edge.Batch{{Op: edge.OpInsert, Src: 1, Dst: 2}}
	if _, _, err := cl.Run(&analytics.Job{Analytic: analytics.JobMutate, Mutations: b1}); err != nil {
		t.Fatalf("mutate: %v", err)
	}
	// Materialize at version 1, then land batch 2 before the swap job.
	states, err := cl.servedStates()
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range states {
		if err := st.materialize(); err != nil {
			t.Fatalf("materialize: %v", err)
		}
	}
	b2 := edge.Batch{{Op: edge.OpInsert, Src: 3, Dst: 4}}
	if _, _, err := cl.Run(&analytics.Job{Analytic: analytics.JobMutate, Mutations: b2}); err != nil {
		t.Fatalf("mutate: %v", err)
	}
	res, _, err := cl.Run(&analytics.Job{Analytic: analytics.JobCompact, CompactVersion: 1})
	if err != nil {
		t.Fatalf("compact: %v", err)
	}
	if res.Compacted || res.Applied != 0 {
		t.Fatalf("stale compact swapped %d shards (compacted=%v), want none", res.Applied, res.Compacted)
	}
	// The current version still compacts.
	res2, err := cl.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if !res2.Compacted {
		t.Fatalf("fresh compact did not swap: %+v", res2)
	}
}

// TestCompactRetryCompletesPartialSwap pins the retry after a partial swap:
// a batch routed only to shard 1 leaves shard 0 with an empty overlay, so
// a compact job at that version swaps shard 0 alone while shard 1 has no
// merge yet. A retry at the same version must swap shard 1 and bump the
// epoch once; a further retry must change nothing.
func TestCompactRetryCompletesPartialSwap(t *testing.T) {
	base := ingestBase(t)
	cl, err := NewCluster(ClusterConfig{
		Ranks:       2,
		Threads:     1,
		Source:      core.ListSource{Edges: base},
		Partition:   partition.Random,
		Seed:        7,
		Epoch:       1,
		NumVertices: ingestSpec.NumVertices,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer func() {
		if err := cl.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	states, err := cl.servedStates()
	if err != nil {
		t.Fatal(err)
	}
	// A new edge between two vertices of shard 1.
	present := map[[2]uint32]bool{}
	for i := 0; i < base.Len(); i++ {
		present[[2]uint32{base.Src(i), base.Dst(i)}] = true
	}
	var batch edge.Batch
	for u := uint32(0); batch == nil; u++ {
		for v := u + 1; v < ingestSpec.NumVertices; v++ {
			if states[1].part.Owner(u) == 1 && states[1].part.Owner(v) == 1 && !present[[2]uint32{u, v}] {
				batch = edge.Batch{{Op: edge.OpInsert, Src: u, Dst: v}}
				break
			}
		}
	}
	if _, _, err := cl.Run(&analytics.Job{Analytic: analytics.JobMutate, Mutations: batch}); err != nil {
		t.Fatalf("mutate: %v", err)
	}
	if !states[0].delta.Empty() || states[1].delta.Empty() {
		t.Fatal("batch did not route to shard 1 alone")
	}
	compact := func() *analytics.JobResult {
		t.Helper()
		res, _, err := cl.Run(&analytics.Job{Analytic: analytics.JobCompact, CompactVersion: 1})
		if err != nil {
			t.Fatalf("compact: %v", err)
		}
		return res
	}
	epoch := cl.Epoch()

	// Shard 1 has no materialization: only shard 0 swaps.
	if res := compact(); res.Compacted || res.Applied != 1 || cl.Epoch() != epoch {
		t.Fatalf("partial swap: %+v, epoch %d -> %d", res, epoch, cl.Epoch())
	}
	if err := states[1].materialize(); err != nil {
		t.Fatalf("materialize: %v", err)
	}
	if res := compact(); !res.Compacted || res.Applied != 1 || cl.Epoch() != epoch+1 {
		t.Fatalf("retry: %+v, epoch %d -> %d", res, epoch, cl.Epoch())
	}
	if res := compact(); res.Compacted || res.Applied != 0 || cl.Epoch() != epoch+1 {
		t.Fatalf("second retry: %+v, epoch %d -> %d", res, epoch, cl.Epoch())
	}
	if got := cl.IngestStats().Compactions; got != 1 {
		t.Fatalf("compactions = %d, want 1", got)
	}
	for s, st := range states {
		if !st.delta.Empty() || st.compactV != 1 {
			t.Fatalf("shard %d not compacted at version 1 (compactV %d)", s, st.compactV)
		}
	}
}

// TestMutatingJobsNeverCached pins scheduler behavior: two identical
// mutate submissions both reach the cluster (no cache hit, no dedupe) and
// each advances the epoch.
func TestMutatingJobsNeverCached(t *testing.T) {
	base := ingestBase(t)
	cl := newIngestCluster(t, base, partition.Random, false, nil)
	s := NewScheduler(cl, chaosSchedConfig())
	s.Start()
	defer s.Close()

	batch := edge.Batch{{Op: edge.OpInsert, Src: 7, Dst: 8}}
	v1 := submitWait(t, s, &analytics.Job{Analytic: analytics.JobMutate, Mutations: batch})
	v2 := submitWait(t, s, &analytics.Job{Analytic: analytics.JobMutate, Mutations: batch})
	if v1.State != StateDone || v2.State != StateDone {
		t.Fatalf("mutate states %s/%s", v1.State, v2.State)
	}
	if v1.Cached || v2.Cached {
		t.Fatal("a mutate ack was served from the result cache")
	}
	if v2.Result.Epoch <= v1.Result.Epoch {
		t.Fatalf("second mutate epoch %d did not advance past %d", v2.Result.Epoch, v1.Result.Epoch)
	}
	st := s.Stats()
	if st.CacheHits != 0 || st.DedupeHits != 0 {
		t.Fatalf("mutate submissions hit the cache: %+v", st)
	}
}

// TestAutoCompaction pins the background manager: with AutoCompact: 2,
// streaming four batches triggers compaction without any admin call.
func TestAutoCompaction(t *testing.T) {
	base := ingestBase(t)
	cl, err := NewCluster(ClusterConfig{
		Ranks:       2,
		Threads:     1,
		Source:      core.ListSource{Edges: base},
		Partition:   partition.Random,
		Seed:        7,
		Epoch:       1,
		NumVertices: ingestSpec.NumVertices,
		AutoCompact: 2,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer func() {
		if err := cl.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	s := NewScheduler(cl, chaosSchedConfig())
	s.Start()
	defer s.Close()
	batches, oracles := ingestSchedule(3, ingestSpec.NumVertices, base, 4, 20)
	mutateAll(t, cl, s, batches, oracles)
	deadline := time.Now().Add(30 * time.Second)
	for cl.IngestStats().Compactions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("auto-compaction never ran")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The compacted cluster still answers correctly.
	view := submitWait(t, s, &analytics.Job{Analytic: analytics.JobWCC})
	if view.State != StateDone {
		t.Fatalf("post-compaction query: %s (%s)", view.State, view.Err)
	}
	if got, want := cl.NumEdges(), uint64(oracles[len(oracles)-1].Len()); got != want {
		t.Fatalf("NumEdges %d, oracle %d", got, want)
	}
}
