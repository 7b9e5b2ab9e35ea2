package analytics

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/partition"
)

// buildHaloEdgeScan is the owner-side halo construction BuildHalo replaced:
// Algorithm 1's counting pass over every owned vertex's selected edges, a
// thread-local fill pass, then the owner-to-ghost global-id exchange. It
// needs no invariant beyond each rank's own CSR, which makes it the
// reference the ghost-list build must agree with.
func buildHaloEdgeScan(ctx *core.Ctx, g *core.Graph, dirs Dirs) (*Halo, error) {
	p := ctx.Size()
	nt := ctx.Pool.Threads()

	perThread := make([][]uint64, nt)
	for t := range perThread {
		perThread[t] = make([]uint64, p)
	}
	forEachDest := func(v uint32, emit func(dest int)) {
		seen := make([]bool, p)
		scan := func(nbrs []uint32) {
			for _, u := range nbrs {
				if u < g.NLoc {
					continue
				}
				d := int(g.GhostOwner[u-g.NLoc])
				if !seen[d] {
					seen[d] = true
					emit(d)
				}
			}
		}
		if dirs.Out {
			scan(g.OutNeighbors(v))
		}
		if dirs.In {
			scan(g.InNeighbors(v))
		}
	}
	ctx.Pool.For(int(g.NLoc), func(lo, hi, tid int) {
		counts := perThread[tid]
		for v := lo; v < hi; v++ {
			forEachDest(uint32(v), func(d int) { counts[d]++ })
		}
	})
	counts := make([]uint64, p)
	for _, tc := range perThread {
		for d, c := range tc {
			counts[d] += c
		}
	}
	offsets, total := par.ExclusivePrefixSum(counts)

	sendVerts := make([]uint32, total)
	shared := par.NewShared(offsets, func(dest int, base uint64, items []uint32) {
		copy(sendVerts[base:base+uint64(len(items))], items)
	})
	ctx.Pool.Run(func(tid int) {
		lo, hi := par.ThreadRange(int(g.NLoc), nt, tid)
		buf := shared.Buf(512)
		for v := lo; v < hi; v++ {
			forEachDest(uint32(v), func(d int) { buf.Push(d, uint32(v)) })
		}
		buf.Flush()
	})
	sendCounts := make([]int, p)
	for d, c := range counts {
		sendCounts[d] = int(c)
	}

	gids := make([]uint32, total)
	for i, v := range sendVerts {
		gids[i] = g.GlobalID(v)
	}
	recvGids, recvSegs, err := comm.Alltoallv(ctx.Comm, gids, sendCounts)
	if err != nil {
		return nil, err
	}
	recvLids := make([]uint32, len(recvGids))
	for i, gid := range recvGids {
		lid := g.LocalID(gid)
		if lid == core.InvalidLocal || lid < g.NLoc {
			return nil, fmt.Errorf("edge-scan halo received vertex %d that is not a ghost here", gid)
		}
		recvLids[i] = lid
	}
	return &Halo{
		sendVerts:  sendVerts,
		sendCounts: sendCounts,
		recvLids:   recvLids,
		recvSegs:   recvSegs,
		recvCounts: make([]int, p),
	}, nil
}

// haloPeerSets returns, per peer rank, the sorted global ids h ships to it
// and the sorted global ids h receives from it.
func haloPeerSets(g *core.Graph, h *Halo) (send, recv [][]uint32) {
	split := func(lids []uint32, segs []int) [][]uint32 {
		out := make([][]uint32, len(segs))
		off := 0
		for r, n := range segs {
			for _, lid := range lids[off : off+n] {
				out[r] = append(out[r], g.GlobalID(lid))
			}
			slices.Sort(out[r])
			off += n
		}
		return out
	}
	return split(h.sendVerts, h.sendCounts), split(h.recvLids, h.recvSegs)
}

// groupBytes runs build and returns its halo with the payload bytes the
// whole group sent while building it.
func groupBytes(ctx *core.Ctx, build func() (*Halo, error)) (*Halo, uint64, error) {
	before := ctx.Comm.TakeStats().BytesSent
	h, err := build()
	if err != nil {
		return nil, 0, err
	}
	sent, err := comm.Allreduce(ctx.Comm, ctx.Comm.TakeStats().BytesSent-before, comm.OpSum)
	return h, sent, err
}

// checkHaloMatchesEdgeScan compares BuildHalo with the edge-scan reference
// on g for DirsOut and DirsBoth: the same global ids travel between every
// (rank, peer) pair in both directions, for the same total gid bytes.
func checkHaloMatchesEdgeScan(ctx *core.Ctx, g *core.Graph) error {
	for _, dirs := range []Dirs{DirsOut, DirsBoth} {
		want, wantBytes, err := groupBytes(ctx, func() (*Halo, error) { return buildHaloEdgeScan(ctx, g, dirs) })
		if err != nil {
			return err
		}
		got, gotBytes, err := groupBytes(ctx, func() (*Halo, error) { return BuildHalo(ctx, g, dirs) })
		if err != nil {
			return err
		}
		if gotBytes != wantBytes {
			return fmt.Errorf("%+v: group sent %d gid bytes, edge scan %d", dirs, gotBytes, wantBytes)
		}
		gs, gr := haloPeerSets(g, got)
		ws, wr := haloPeerSets(g, want)
		for d := range ws {
			if !slices.Equal(gs[d], ws[d]) {
				return fmt.Errorf("%+v: rank %d sends peer %d %v, edge scan %v", dirs, ctx.Rank(), d, gs[d], ws[d])
			}
			if !slices.Equal(gr[d], wr[d]) {
				return fmt.Errorf("%+v: rank %d receives from peer %d %v, edge scan %v", dirs, ctx.Rank(), d, gr[d], wr[d])
			}
		}
	}
	return nil
}

var haloKinds = []partition.Kind{partition.VertexBlock, partition.EdgeBlock, partition.Random, partition.PuLPKind}

// TestHaloMatchesEdgeScan pins the ghost-list build against the edge-scan
// reference on every test graph, rank count and partitioning.
func TestHaloMatchesEdgeScan(t *testing.T) {
	for _, tg := range makeTestGraphs(t) {
		for _, p := range []int{1, 2, 3, 4, 8} {
			for _, kind := range haloKinds {
				t.Run(fmt.Sprintf("%s/p=%d/%v", tg.name, p, kind), func(t *testing.T) {
					err := comm.RunLocal(p, func(c *comm.Comm) error {
						ctx := core.NewCtx(c, 2)
						src := core.ListSource{Edges: tg.edges}
						pt, err := core.MakePartitioner(ctx, src, kind, tg.n, 123)
						if err != nil {
							return err
						}
						g, _, err := core.Build(ctx, src, pt)
						if err != nil {
							return err
						}
						return checkHaloMatchesEdgeScan(ctx, g)
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestHaloMatchesEdgeScanOnMergedAndReloadedShards covers the two other
// producers of shards the ghost-list build trusts: an overlay merged after
// inserts and deletes, and that merged shard reloaded through the v2 shard
// codec.
func TestHaloMatchesEdgeScanOnMergedAndReloadedShards(t *testing.T) {
	const n = 260
	spec := gen.Spec{Kind: gen.RMAT, NumVertices: n, NumEdges: 1800, Seed: 31}
	base, err := spec.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	batches, _ := mutationBatches(9, n, base, 3, 60)
	for _, p := range []int{2, 3, 4, 8} {
		for _, kind := range haloKinds {
			t.Run(fmt.Sprintf("p=%d/%v", p, kind), func(t *testing.T) {
				err := comm.RunLocal(p, func(c *comm.Comm) error {
					ctx := core.NewCtx(c, 2)
					src := core.ListSource{Edges: base}
					pt, err := core.MakePartitioner(ctx, src, kind, n, 7)
					if err != nil {
						return err
					}
					g, _, err := core.Build(ctx, src, pt)
					if err != nil {
						return err
					}
					d := core.NewDelta(g)
					var stats core.ApplyStats
					for bi, batch := range batches {
						if stats, err = core.ApplyBatch(ctx, d, uint64(bi+1), batch); err != nil {
							return fmt.Errorf("batch %d: %w", bi, err)
						}
					}
					merged, err := core.MergeDelta(d, stats.MGlobal)
					if err != nil {
						return err
					}
					if err := checkHaloMatchesEdgeScan(ctx, merged); err != nil {
						return fmt.Errorf("merged: %w", err)
					}
					var buf bytes.Buffer
					if err := core.SaveShard(&buf, merged); err != nil {
						return err
					}
					reloaded, err := core.LoadShard(&buf)
					if err != nil {
						return err
					}
					if err := checkHaloMatchesEdgeScan(ctx, reloaded); err != nil {
						return fmt.Errorf("reloaded: %w", err)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestHaloRejectsMalformedRequest corrupts one ghost's global id on rank 1,
// so rank 1 asks rank 0 for a vertex rank 0 does not own. Rank 0 must fail
// the build with an error, neither panicking nor filling a wrong slot.
func TestHaloRejectsMalformedRequest(t *testing.T) {
	tg := makeTestGraphs(t)[4] // rmat
	cases := []struct {
		name string
		bad  func(g *core.Graph) uint32
	}{
		{"unknown vertex", func(g *core.Graph) uint32 { return g.NGlobal + 5 }},
		// An owned vertex with a neighbor on rank 0 is a ghost there: known
		// to rank 0, but not a vertex it can ship.
		{"ghost on owner", func(g *core.Graph) uint32 {
			for v := uint32(0); v < g.NLoc; v++ {
				for _, u := range g.OutNeighbors(v) {
					if u >= g.NLoc {
						return g.GlobalID(v)
					}
				}
			}
			panic("rank 1 has no cut edge")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs := make([]error, 2)
			err := comm.RunLocal(2, func(c *comm.Comm) error {
				ctx := core.NewCtx(c, 1)
				src := core.ListSource{Edges: tg.edges}
				pt, err := core.MakePartitioner(ctx, src, partition.VertexBlock, tg.n, 123)
				if err != nil {
					return err
				}
				g, _, err := core.Build(ctx, src, pt)
				if err != nil {
					return err
				}
				if c.Rank() == 1 {
					if g.NGst == 0 {
						return fmt.Errorf("rank 1 has no ghosts")
					}
					bad := *g
					bad.Unmap = slices.Clone(g.Unmap)
					bad.Unmap[g.NLoc] = tc.bad(g)
					g = &bad
				}
				_, errs[c.Rank()] = BuildHalo(ctx, g, DirsBoth)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if errs[0] == nil || !strings.Contains(errs[0].Error(), "does not own") {
				t.Fatalf("rank 0 served a malformed request: err %v", errs[0])
			}
			if errs[1] != nil {
				t.Fatalf("rank 1 asked for a bad vertex but its own build failed: %v", errs[1])
			}
		})
	}
}
