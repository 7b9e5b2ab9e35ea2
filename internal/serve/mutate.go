package serve

import (
	"fmt"
	"sync"

	"repro/internal/analytics"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/partition"
)

// Streaming ingest over the resident cluster. Mutations arrive as jobs
// (JobMutate descriptors) through the same broadcast dispatch as queries,
// so one serialized job stream orders reads against writes with no extra
// locking protocol between ranks. Each replica of each shard is a
// shardState: an immutable packed base CSR plus a core.Delta overlay.
// Queries run on a lazily materialized merge of the overlay (a plain
// *core.Graph, so analytics kernels are untouched); compaction promotes a
// background-materialized merge to be the new base and resets the overlay,
// while the old epoch keeps serving until the swap instant.
//
// Exactly-once ingest: every mutate batch carries a cluster-assigned
// ascending MutationID and every overlay keeps a replay watermark, so a
// batch replayed by the scheduler after a group death (or applied to a
// backup replica that already saw it) is skipped whole. Backup replicas on
// the same host are kept current communication-free: the batch travels
// whole in the job broadcast and core.FilterRouted computes exactly the
// records the routing exchange would have delivered to that shard.

// shardState is one replica of one shard: the packed base, its mutation
// overlay, and at most one cached materialization of base+overlay.
type shardState struct {
	// part and nGlobal are immutable across compaction swaps (mutations
	// never change the vertex set or the partition map).
	part    partition.Partitioner
	nGlobal uint32

	// mergeMu serializes materialization so a background compaction merge
	// and a query-path merge never duplicate the work.
	mergeMu sync.Mutex

	// mu guards everything below.
	mu       sync.Mutex
	base     *core.Graph
	delta    *core.Delta
	merged   *core.Graph // materialization of base+delta at version, or nil
	mGlobal  uint64      // global live edge count after the last batch
	compactV uint64      // overlay version of the last completed swap
}

// newShardState wraps a freshly built or loaded shard.
func newShardState(g *core.Graph) *shardState {
	return &shardState{
		part:    g.Part,
		nGlobal: g.NGlobal,
		base:    g,
		delta:   core.NewDelta(g),
		mGlobal: g.MGlobal,
	}
}

// version is the overlay's replay watermark: the id of the last applied
// mutation batch. Caller holds st.mu.
func (st *shardState) versionLocked() uint64 { return st.delta.LastID() }

// serveGraph returns the graph a query should traverse: the base when the
// overlay is empty, the cached materialization when one exists, otherwise
// a synchronous merge (the first query after a mutation pays the merge the
// background compactor would otherwise have paid).
func (st *shardState) serveGraph() (*core.Graph, error) {
	for {
		st.mu.Lock()
		if st.delta.Empty() {
			g := st.base
			st.mu.Unlock()
			return g, nil
		}
		if st.merged != nil {
			g := st.merged
			st.mu.Unlock()
			return g, nil
		}
		st.mu.Unlock()
		if err := st.materialize(); err != nil {
			return nil, err
		}
	}
}

// materialize merges base+overlay into a cached graph. The merge runs
// outside st.mu on a deep-copied overlay snapshot, so ingest keeps
// applying while a background compaction merges; the result is stored
// only if no batch landed in between (a newer batch will re-materialize).
func (st *shardState) materialize() error {
	st.mergeMu.Lock()
	defer st.mergeMu.Unlock()
	st.mu.Lock()
	if st.merged != nil || st.delta.Empty() {
		st.mu.Unlock()
		return nil
	}
	snap := st.delta.Clone()
	v := st.versionLocked()
	m := st.mGlobal
	st.mu.Unlock()

	g, err := core.MergeDelta(snap, m)
	if err != nil {
		return err
	}
	st.mu.Lock()
	if st.versionLocked() == v && st.merged == nil {
		st.merged = g
	}
	st.mu.Unlock()
	return nil
}

// trySwap promotes the cached materialization to be the new base iff it is
// current for exactly the requested version: the overlay restarts empty
// over the new base, keeping the replay watermark. version is broadcast in
// the compact descriptor, so every slot takes the same branch. current
// reports whether the shard is compacted at version afterwards — swapped
// by this call, or by an earlier compaction at the same version that other
// shards did not complete — and swapped whether this call did the swap.
func (st *shardState) trySwap(version uint64) (current, swapped bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if version == 0 || st.versionLocked() != version {
		return false, false
	}
	if st.compactV == version {
		return true, false
	}
	// A shard that received no records from the applied batches has an
	// overlay of empty frames: nothing to merge, compaction is just the
	// overlay reset. Without this branch a sparse batch (records touching
	// only some shards) could never complete a full swap.
	if !st.delta.Empty() {
		if st.merged == nil {
			return false, false
		}
		st.base = st.merged
	}
	st.compactV = version
	st.merged = nil
	d := core.NewDelta(st.base)
	d.FastForward(version)
	st.delta = d
	return true, true
}

// overlayStats snapshots the overlay counters.
func (st *shardState) overlayStats() core.DeltaStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.delta.Stats()
}

// backupRef pairs an unserved backup replica with the shard index it
// backs, which FilterRouted needs to filter the broadcast batch.
type backupRef struct {
	shard int
	st    *shardState
}

// slotState is everything one compute slot's dispatch loop serves in one
// generation: its shard replica plus (on the host's lowest slot only) the
// host's unserved backup replicas, which that slot keeps current on every
// mutate so a later promotion serves an up-to-date shard.
type slotState struct {
	state   *shardState
	host    int
	backups []backupRef
}

// applyMutation applies one already-routed batch to a shard replica,
// invalidating the cached materialization only if the batch was new (a
// replay is skipped whole by the overlay's watermark).
func applyMutation(st *shardState, id uint64, out, in []comm.MutationRecord, mGlobal uint64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	before := st.versionLocked()
	if err := st.delta.ApplyRouted(id, out, in); err != nil {
		return err
	}
	if st.versionLocked() != before {
		st.merged = nil
	}
	st.mGlobal = mGlobal
	return nil
}

// runMutate is the rank-side ingest step: route the broadcast batch to
// owners (two Alltoallv exchanges, like the construction shuffles), apply
// to the served replica, agree on the new global edge count (the
// reduction doubles as the all-slots-applied barrier — rank 0 acknowledges
// success only after it), then filter-apply to the host's unserved
// backups. Rank 0 advances the epoch before responding, so a query
// admitted after the ack can never hit a pre-mutation cache entry.
func (cl *Cluster) runMutate(ctx *core.Ctx, sc *slotState, job *analytics.Job) (*analytics.JobResult, error) {
	if job.MutationID == 0 {
		return nil, fmt.Errorf("serve: mutate job has no mutation id")
	}
	st := sc.state
	out, in, err := core.RouteMutations(ctx, st.part, job.Mutations)
	if err != nil {
		return nil, err
	}
	// Apply, then reconcile the two CSR sides globally.
	st.mu.Lock()
	before := st.versionLocked()
	applyErr := st.delta.ApplyRouted(job.MutationID, out, in)
	if applyErr == nil && st.versionLocked() != before {
		st.merged = nil
	}
	liveOut, liveIn := st.delta.LiveOut(), st.delta.LiveIn()
	st.mu.Unlock()
	if applyErr != nil {
		return nil, applyErr
	}
	mOut, err := comm.Allreduce(ctx.Comm, liveOut, comm.OpSum)
	if err != nil {
		return nil, err
	}
	mIn, err := comm.Allreduce(ctx.Comm, liveIn, comm.OpSum)
	if err != nil {
		return nil, err
	}
	if mOut != mIn {
		return nil, fmt.Errorf("serve: overlay out/in edge counts diverged: %d vs %d", mOut, mIn)
	}
	st.mu.Lock()
	st.mGlobal = mOut
	st.mu.Unlock()
	for _, b := range sc.backups {
		fo, fi := core.FilterRouted(b.st.part, b.shard, job.Mutations)
		if err := applyMutation(b.st, job.MutationID, fo, fi, mOut); err != nil {
			return nil, fmt.Errorf("serve: updating backup of shard %d: %w", b.shard, err)
		}
	}
	ep := cl.epoch.Load()
	if ctx.Rank() == 0 {
		cl.m.Store(mOut)
		ep = cl.epoch.Add(1)
		cl.ingestBatches.Add(1)
		cl.ingestRecords.Add(uint64(len(job.Mutations)))
		cl.maybeAutoCompact()
	}
	return &analytics.JobResult{
		Analytic: analytics.JobMutate,
		Applied:  uint64(len(job.Mutations)),
		Epoch:    ep,
	}, nil
}

// runCompact is the rank-side epoch swap: each slot promotes its cached
// materialization iff it is current for the broadcast version, and the
// group agrees on how many shards are current and how many swapped now.
// The overlay version is uniform across slots (batches are collective), so
// a compaction swaps every shard, or none when a mutate raced the merge, or
// — when one shard's merge raced a batch the others never saw — some. A
// retry at the same version swaps the rest; the epoch bumps on the call
// that makes the last shard current, so exactly once per version.
func (cl *Cluster) runCompact(ctx *core.Ctx, sc *slotState, job *analytics.Job) (*analytics.JobResult, error) {
	mine := []uint64{0, 0} // current, swapped
	current, swapped := sc.state.trySwap(job.CompactVersion)
	if current {
		mine[0] = 1
	}
	if swapped {
		mine[1] = 1
	}
	sums, err := comm.AllreduceSlice(ctx.Comm, mine, comm.OpSum)
	if err != nil {
		return nil, err
	}
	full := sums[0] == uint64(cl.size) && sums[1] > 0
	ep := cl.epoch.Load()
	if ctx.Rank() == 0 && full {
		ep = cl.epoch.Add(1)
		cl.compactions.Add(1)
		cl.maybeAutoSnapshot()
	}
	return &analytics.JobResult{
		Analytic:  analytics.JobCompact,
		Applied:   sums[1],
		Compacted: full,
		Epoch:     ep,
	}, nil
}

// servedStates returns, for every slot, the shard replica the current (or
// next) view would serve, mirroring formView's first-live-replica rule.
func (cl *Cluster) servedStates() ([]*shardState, error) {
	cl.hostMu.Lock()
	defer cl.hostMu.Unlock()
	out := make([]*shardState, cl.size)
	for s := 0; s < cl.size; s++ {
		host := -1
		for _, r := range cl.placement.ReplicaRanks(s) {
			if cl.hosts[r].alive {
				host = r
				break
			}
		}
		if host < 0 {
			return nil, fmt.Errorf("%w: shard %d", ErrShardLost, s)
		}
		st := cl.hosts[host].shards[s]
		if st == nil {
			return nil, fmt.Errorf("serve: host %d holds no replica of shard %d", host, s)
		}
		out[s] = st
	}
	return out, nil
}

// Compact runs one compaction cycle: materialize every served shard's
// overlay in the background (queries keep flowing against the old epoch —
// a query that arrives mid-merge either serves the still-valid cached
// materialization or pays its own merge), then submit one compact job
// through the serialized job stream to swap every shard atomically with
// respect to queries. Returns the compact job's result; Compacted is false
// when nothing needed compacting or a mutation raced the merge (retry on
// the next cycle).
func (cl *Cluster) Compact() (*analytics.JobResult, error) {
	states, err := cl.servedStates()
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	errs := make([]error, len(states))
	for i, st := range states {
		wg.Add(1)
		go func(i int, st *shardState) {
			defer wg.Done()
			errs[i] = st.materialize()
		}(i, st)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("serve: materializing shard %d: %w", i, err)
		}
	}
	// The uniform overlay version the swap is conditioned on. If a batch
	// lands between this read and the job's execution, every slot's version
	// has moved past it and every slot skips — never a partial swap. Note a
	// single shard's overlay content says nothing (a sparse batch may have
	// routed it zero records); only version == 0 means nothing was ingested.
	states[0].mu.Lock()
	version := states[0].versionLocked()
	states[0].mu.Unlock()
	if version == 0 {
		return &analytics.JobResult{Analytic: analytics.JobCompact, Epoch: cl.epoch.Load()}, nil
	}
	job := &analytics.Job{Analytic: analytics.JobCompact, CompactVersion: version}
	res, _, err := cl.Run(job)
	return res, err
}

// maybeAutoCompact nudges the background compaction manager once the
// configured batch budget is spent. Called by rank 0 inside the mutate
// job; the signal is non-blocking and the manager runs Compact from its
// own goroutine, so the dispatch loop never waits on a compaction.
func (cl *Cluster) maybeAutoCompact() {
	if cl.autoCompact <= 0 {
		return
	}
	if cl.sinceCompact.Add(1) < uint64(cl.autoCompact) {
		return
	}
	select {
	case cl.compactReq <- struct{}{}:
	default:
	}
}

// compactManager is the auto-compaction loop: one Compact per nudge, with
// the batch budget re-armed first so batches ingested during the merge
// count toward the next cycle.
func (cl *Cluster) compactManager() {
	for {
		select {
		case <-cl.compactReq:
			cl.sinceCompact.Store(0)
			_, _ = cl.Compact()
		case <-cl.dead:
			return
		}
	}
}

// IngestStats is the mutation-subsystem counter snapshot for /v1/stats.
type IngestStats struct {
	// Batches and Records count acknowledged mutate jobs and the mutation
	// records they carried (including replays, which ack without effect).
	Batches uint64 `json:"batches"`
	Records uint64 `json:"records"`
	// Compactions counts full epoch swaps.
	Compactions uint64 `json:"compactions"`
	// LastMutationID is the highest assigned batch id.
	LastMutationID uint64 `json:"last_mutation_id"`
}

// IngestStats snapshots the mutation counters.
func (cl *Cluster) IngestStats() IngestStats {
	return IngestStats{
		Batches:        cl.ingestBatches.Load(),
		Records:        cl.ingestRecords.Load(),
		Compactions:    cl.compactions.Load(),
		LastMutationID: cl.nextMutID.Load(),
	}
}

// NextMutationID assigns the next ingest batch id. The scheduler calls it
// at dispatch time — single-threaded, one job at a time — so ids ascend in
// application order and a requeued batch keeps the id it was assigned.
func (cl *Cluster) NextMutationID() uint64 { return cl.nextMutID.Add(1) }
