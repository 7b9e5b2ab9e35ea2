// Package analytics implements the paper's six graph analytics on the
// distributed graph of the core package, in the paper's two algorithmic
// classes:
//
//   - PageRank-like (§III-D1): every vertex propagates a per-vertex value to
//     its neighbors every iteration. PageRank, Label Propagation, and the
//     coloring phases of WCC/SCC/k-core work this way, all built on the
//     retained-queue Halo in this file.
//   - BFS-like (§III-D2): a sparse frontier expands over adjacency lists;
//     per-vertex updates happen at the owning rank. BFS, the traversal
//     phases of WCC/SCC, Harmonic Centrality, and the k-core peel work this
//     way, built on the frontier machinery in bfs.go.
//
// All functions must be called collectively by every rank of the graph's
// group, like MPI routines.
package analytics

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/core"
)

// Halo is the paper's retained send/receive queues for PageRank-like
// phases. Building it costs a counting sort of this rank's ghosts (after
// one flat mark pass over one CSR when it covers a single direction) plus
// one global-id exchange; afterwards every iteration refreshes all ghost
// copies with a single value-only Alltoallv — the paper's two queue
// optimizations (halve traffic by resending only values; never rebuild the
// queues).
//
// The build relies on the both-owners invariant that core.Build,
// core.MergeDelta and the shard loader keep: every edge (u, v) is stored
// twice, in the out-CSR at owner(u) and in the in-CSR at owner(v). So an
// owned vertex must be shipped to rank d exactly when it is a ghost on d,
// and each rank can request its ghosts from their owners instead of every
// owner scanning its edges for the ranks that need them.
type Halo struct {
	// sendVerts lists the owned local ids whose value must be shipped,
	// grouped by destination rank; sendCounts are the per-rank group
	// sizes. A vertex appears once per rank that needs it.
	sendVerts  []uint32
	sendCounts []int
	// recvLids lists the ghost local ids that incoming values update, in
	// exactly the order values arrive (the paper's vRecv after its one-time
	// global-to-local conversion).
	recvLids []uint32
	// recvSegs are the per-source-rank segment sizes of recvLids, retained
	// from the one-time global-id exchange: the dense bitmap exchange packs
	// and unpacks bit segments against exactly this geometry, and the
	// reverse (ghost-to-owner) exchange uses it as its send counts.
	recvSegs []int

	// Retained exchange scratch: the typed send/recv staging reused by
	// every Exchange so the steady-state iteration allocates nothing.
	// Stored as any because Halo itself is not generic; a halo is driven
	// with one element type in practice, and a type change simply re-warms
	// the scratch.
	sendScratch any
	recvScratch any
	recvCounts  []int
}

// Dirs selects which adjacency directions a halo covers: a vertex's value
// is sent to ranks owning its out-neighbors (Out), its in-neighbors (In),
// or both (the union, for undirected-style analytics).
type Dirs struct{ Out, In bool }

// DirsOut ships values along out-edges: afterwards every rank holds fresh
// values for all in-neighbors of its owned vertices (what PageRank pulls).
var DirsOut = Dirs{Out: true}

// DirsBoth ships values along both directions: afterwards every ghost copy
// on every rank is fresh (what Label Propagation and the coloring phases
// need).
var DirsBoth = Dirs{Out: true, In: true}

// BuildHalo constructs the retained queues for the given directions from
// this rank's ghost list (see Halo for the invariant this relies on).
func BuildHalo(ctx *core.Ctx, g *core.Graph, dirs Dirs) (*Halo, error) {
	if err := require1D(g, "halo exchange"); err != nil {
		return nil, err
	}
	p := ctx.Size()

	// The ghosts this rank needs values for. Out ships a vertex along its
	// out-edges, so a ghost is needed here when it appears in this rank's
	// in-CSR; In, when it appears in the out-CSR. Every ghost appears in
	// one or the other, so DirsBoth needs all of them.
	var need []bool // nil: every ghost
	if !dirs.Out || !dirs.In {
		need = make([]bool, g.NGst)
		mark := func(edges []uint32) {
			for _, u := range edges {
				if u >= g.NLoc {
					need[u-g.NLoc] = true
				}
			}
		}
		if dirs.Out {
			mark(g.InEdges)
		}
		if dirs.In {
			mark(g.OutEdges)
		}
	}

	// Counting sort of the needed ghosts by owner: the receive geometry.
	recvSegs := make([]int, p)
	for i, o := range g.GhostOwner {
		if need == nil || need[i] {
			recvSegs[o]++
		}
	}
	next := make([]int, p)
	total := 0
	for r, c := range recvSegs {
		next[r] = total
		total += c
	}
	recvLids := make([]uint32, total)
	gids := make([]uint32, total)
	for i, o := range g.GhostOwner {
		if need == nil || need[i] {
			lid := g.NLoc + uint32(i)
			recvLids[next[o]] = lid
			gids[next[o]] = g.GlobalID(lid)
			next[o]++
		}
	}

	// One-time global-id exchange, ghost holder to owner: each owner learns
	// which of its vertices every peer needs, in the peer's slot order, and
	// converts them to local ids once (the paper's "replace global ids with
	// local ids in vRecv" optimization, done on the sending side).
	req, sendCounts, err := comm.Alltoallv(ctx.Comm, gids, recvSegs)
	if err != nil {
		return nil, err
	}
	sendVerts := make([]uint32, len(req))
	for i, gid := range req {
		lid := g.LocalID(gid)
		if lid == core.InvalidLocal || lid >= g.NLoc {
			return nil, fmt.Errorf("analytics: halo peer requested vertex %d, which rank %d does not own", gid, g.Rank())
		}
		sendVerts[i] = lid
	}
	return &Halo{
		sendVerts:  sendVerts,
		sendCounts: sendCounts,
		recvLids:   recvLids,
		recvSegs:   recvSegs,
		recvCounts: make([]int, p),
	}, nil
}

// SendVolume returns the number of values shipped per exchange (the halo's
// outgoing width).
func (h *Halo) SendVolume() int { return len(h.sendVerts) }

// RecvVolume returns the number of ghost updates received per exchange.
func (h *Halo) RecvVolume() int { return len(h.recvLids) }

// haloParMin is the volume (elements) above which the halo gather/scatter
// loops fan out over the rank's thread pool. Below it the memcpy-like loop
// is cheaper than waking workers.
const haloParMin = 1 << 13

// Exchange refreshes ghost copies in state (length NTotal) from their
// owners: one value-only Alltoallv against the retained queues. Send and
// receive staging is retained on the halo and the byte buffers on the
// communicator, so after the first call an exchange performs zero heap
// allocations; gather and scatter go parallel for large halos.
func Exchange[T comm.Scalar](ctx *core.Ctx, h *Halo, state []T) error {
	ns, nr := len(h.sendVerts), len(h.recvLids)
	send, ok := h.sendScratch.([]T)
	if !ok || cap(send) < ns {
		send = make([]T, ns)
		h.sendScratch = send
	}
	send = send[:ns]
	par := ctx.Pool.Threads() > 1
	if par && ns >= haloParMin {
		ctx.Pool.For(ns, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				send[i] = state[h.sendVerts[i]]
			}
		})
	} else {
		for i, v := range h.sendVerts {
			send[i] = state[v]
		}
	}

	recv, ok := h.recvScratch.([]T)
	if !ok || cap(recv) < nr {
		recv = make([]T, nr)
		h.recvScratch = recv
	}
	recv, _, err := comm.AlltoallvInto(ctx.Comm, send, h.sendCounts, recv[:nr], h.recvCounts)
	if err != nil {
		return err
	}
	if len(recv) != nr {
		return fmt.Errorf("analytics: halo exchange received %d values, want %d", len(recv), nr)
	}
	// Each ghost here has exactly one owner and arrives once per exchange,
	// so the parallel scatter writes disjoint slots.
	if par && nr >= haloParMin {
		ctx.Pool.For(nr, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				state[h.recvLids[i]] = recv[i]
			}
		})
	} else {
		for i, lid := range h.recvLids {
			state[lid] = recv[i]
		}
	}
	return nil
}
