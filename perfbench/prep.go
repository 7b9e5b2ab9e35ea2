package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"

	"repro/internal/edge"
	"repro/internal/gen"
	"repro/internal/gio"
)

// input is what untimed preparation hands every workload. The program
// itself only ever sees the edge file and the generated requests.
type input struct {
	path string
	n    uint32
	m    uint64
	// outRoots and inRoots are degree-biased vertex pools: the source and
	// destination of uniformly drawn edges, so forward traversals start
	// where there are out-edges and reverse ones where there are in-edges.
	outRoots []uint32
	inRoots  []uint32
	// batches is serve-write's mutation stream, in send order.
	batches []edge.Batch
	// weightSeed seeds the SSSP edge weights (hash weights in [1, maxWeight]).
	weightSeed uint64
}

const (
	rootPool        = 4096
	maxWeight       = 16
	mutationBatches = 512
	batchRecords    = 64
)

// spec is the WC-sim stand-in of the harness at scale 1: R-MAT with the
// crawl's average degree of 36.
func (cfg *config) spec() gen.Spec {
	n := uint32(1) << cfg.logN
	return gen.Spec{Kind: gen.RMAT, NumVertices: n, NumEdges: uint64(n) * 36, Seed: cfg.seed}
}

// prepare generates the graph, writes it as the paper's binary edge file,
// and draws every seeded request ingredient from it.
func prepare(cfg *config) (*input, error) {
	spec := cfg.spec()
	edges, err := generate(spec)
	if err != nil {
		return nil, err
	}
	// The program sizes the vertex set as 1 + the largest id in the file
	// (core.ScanNumVertices); the oracles must see the same n.
	top, _ := edges.MaxVertex()
	in := &input{
		path:       filepath.Join(cfg.work, "graph.bin"),
		n:          top + 1,
		m:          spec.NumEdges,
		weightSeed: cfg.seed ^ 0x5eed,
	}
	if err := gio.WriteFile(in.path, edges); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(cfg.seed)))
	in.outRoots = make([]uint32, rootPool)
	in.inRoots = make([]uint32, rootPool)
	for i := range in.outRoots {
		in.outRoots[i] = edges.Src(rng.Intn(edges.Len()))
		in.inRoots[i] = edges.Dst(rng.Intn(edges.Len()))
	}
	// Mutations draw their records as the repository's ingest experiment
	// does (internal/harness/ingest.go): three in five insert a fresh
	// uniformly random edge, two in five delete an edge of the file, so
	// deletions tombstone real CSR positions.
	in.batches = make([]edge.Batch, mutationBatches)
	for b := range in.batches {
		batch := make(edge.Batch, batchRecords)
		for i := range batch {
			if rng.Intn(5) < 3 {
				batch[i] = edge.Mutation{Op: edge.OpInsert,
					Src: uint32(rng.Intn(int(in.n))), Dst: uint32(rng.Intn(int(in.n)))}
			} else {
				e := rng.Intn(edges.Len())
				batch[i] = edge.Mutation{Op: edge.OpDelete, Src: edges.Src(e), Dst: edges.Dst(e)}
			}
		}
		in.batches[b] = batch
	}
	return in, nil
}

// generate materializes the spec on two goroutines (the generator is a
// pure function of the edge index).
func generate(spec gen.Spec) (edge.List, error) {
	const parts = 2
	chunks := make([]edge.List, parts)
	errs := make([]error, parts)
	var wg sync.WaitGroup
	for i := 0; i < parts; i++ {
		lo, hi := gen.ChunkRange(spec.NumEdges, i, parts)
		wg.Add(1)
		go func(i int, lo, hi uint64) {
			defer wg.Done()
			chunks[i], errs[i] = spec.Generate(lo, hi)
		}(i, lo, hi)
	}
	wg.Wait()
	out := make(edge.List, 0, 2*spec.NumEdges)
	for i := range chunks {
		if errs[i] != nil {
			return nil, fmt.Errorf("generating edges: %w", errs[i])
		}
		out = append(out, chunks[i]...)
	}
	return out, nil
}

// readEdges loads the whole edge file back, for the oracles.
func readEdges(path string) (edge.List, error) {
	r, err := gio.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return r.ReadChunk(0, r.NumEdges())
}
