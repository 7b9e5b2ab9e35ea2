package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"repro/internal/analytics"
	"repro/internal/edge"
	"repro/internal/seq"
)

// oracle answers the checks from the internal/seq reference
// implementations over the graph a workload served, memoizing the
// whole-graph results and the traversals several answers share.
type oracle struct {
	g *seq.Graph
	w analytics.WeightFunc

	mu  sync.Mutex
	bfs map[bfsKey][]int64

	once                 sync.Once
	wcc, scc, corenessUB []uint32
	pagerank             []float64
	wccCount, wccLargest uint64
}

type bfsKey struct {
	root uint32
	dir  seq.Dir
}

func newOracle(n uint32, edges edge.List, weightSeed uint64) *oracle {
	return &oracle{
		g:   seq.FromEdges(n, edges),
		w:   analytics.HashWeights(weightSeed, maxWeight),
		bfs: map[bfsKey][]int64{},
	}
}

// levels returns the memoized sequential BFS levels.
func (o *oracle) levels(root uint32, dir seq.Dir) []int64 {
	k := bfsKey{root, dir}
	o.mu.Lock()
	l, ok := o.bfs[k]
	o.mu.Unlock()
	if ok {
		return l
	}
	l = seq.BFS(o.g, root, dir)
	o.mu.Lock()
	o.bfs[k] = l
	o.mu.Unlock()
	return l
}

// whole computes the whole-graph oracles once.
func (o *oracle) whole() {
	o.once.Do(func() {
		o.wcc = seq.WCC(o.g)
		o.scc = seq.SCC(o.g)
		o.corenessUB = seq.CorenessUB(o.g, kcoreLevels)
		o.pagerank = seq.PageRank(o.g, pagerankIters, pagerankDamping)
		sizes := map[uint32]uint64{}
		for _, l := range o.wcc {
			sizes[l]++
		}
		o.wccCount = uint64(len(sizes))
		for _, s := range sizes {
			if s > o.wccLargest {
				o.wccLargest = s
			}
		}
	})
}

// Analytic parameters the paper uses (and the oracles must match).
const (
	kcoreLevels     = 27
	pagerankIters   = 10
	pagerankDamping = 0.85
	labelpropIters  = 10
	floatEps        = 1e-9
)

// reach summarizes BFS levels the way the serve layer reports them.
func reach(levels []int64) (reached uint64, depth int) {
	depth = -1
	for _, l := range levels {
		if l >= 0 {
			reached++
			if int(l) > depth {
				depth = int(l)
			}
		}
	}
	return reached, depth
}

// harmonicClose compares two harmonic centralities.
func harmonicClose(got, want float64) bool {
	return math.Abs(got-want) <= floatEps*math.Max(1, math.Abs(want))
}

// kcoreNonEmpty reports whether the k-core of the undirected multigraph
// (loops counted twice, the KCoreExact convention) has any vertex: peel
// every vertex of remaining degree below k until none is left to peel.
// The degeneracy K is the only k with a non-empty k-core and an empty
// (k+1)-core, which checks a reported maximum coreness in two linear peels.
func kcoreNonEmpty(g *seq.Graph, k uint64) bool {
	deg := make([]uint64, g.N)
	alive := make([]bool, g.N)
	var queue []uint32
	left := uint64(g.N)
	for v := uint32(0); v < g.N; v++ {
		deg[v] = g.UndDeg(v)
		alive[v] = true
		if deg[v] < k {
			alive[v] = false
			left--
			queue = append(queue, v)
		}
	}
	drop := func(u uint32) {
		if !alive[u] {
			return
		}
		deg[u]--
		if deg[u] < k {
			alive[u] = false
			left--
			queue = append(queue, u)
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, u := range g.OutN(v) {
			drop(u)
		}
		for _, u := range g.InN(v) {
			drop(u)
		}
	}
	return left > 0
}

// digest hashes a per-vertex answer array.
func digest[T int32 | int64 | uint8 | uint32 | uint64](xs []T) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		v := uint64(x)
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// levelsDigest hashes levels in the distributed BFS representation.
func levelsDigest(levels []int64) uint64 {
	out := make([]int32, len(levels))
	for i, l := range levels {
		out[i] = int32(l)
	}
	return digest(out)
}

// partitionDigest hashes a labelling as a partition: labels are renamed
// by first occurrence, so two labellings with the same classes agree.
func partitionDigest(labels []uint32) uint64 {
	rename := make(map[uint32]uint32, 1024)
	canon := make([]uint32, len(labels))
	for i, l := range labels {
		c, ok := rename[l]
		if !ok {
			c = uint32(len(rename))
			rename[l] = c
		}
		canon[i] = c
	}
	return digest(canon)
}

// check runs every answer's verification on two workers and counts the
// wrong answers in m.wrong.
func (m *measurement) check(in *input) error {
	var todo []*answer
	for _, a := range m.answers {
		if a.verify != nil {
			todo = append(todo, a)
		}
	}
	if len(todo) == 0 {
		return nil
	}
	edges, err := m.oracleEdges(in)
	if err != nil {
		return err
	}
	o := newOracle(in.n, edges, in.weightSeed)
	const workers = 2
	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(todo); i += workers {
				a := todo[i]
				if err := a.verify(o); err != nil {
					mu.Lock()
					a.wrong = true
					m.wrong++
					if m.wrong <= 5 {
						m.notes = append(m.notes, fmt.Sprintf("wrong %s answer: %v", a.kind, err))
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	return nil
}

// oracleEdges returns the edge list the checked answers were computed on:
// the edge file, or for serve-write the file with every sent mutation
// batch applied in order.
func (m *measurement) oracleEdges(in *input) (edge.List, error) {
	edges, err := readEdges(in.path)
	if err != nil {
		return nil, err
	}
	if m.mutated == 0 {
		return edges, nil
	}
	var all edge.Batch
	for _, b := range in.batches[:m.mutated] {
		all = append(all, b...)
	}
	return all.ApplyTo(edges), nil
}
