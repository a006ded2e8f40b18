package main

import (
	"fmt"
	"math/rand"
	"sort"
)

// Job is one submission of a workload's job list: a graph in the
// numbering the client submits it in, the solve parameters, and what the
// generator knows about the answer.
type Job struct {
	// Class identifies the isomorphism class: relabelings of one base
	// graph share it, and every answer within a class must agree.
	Class int      `json:"class"`
	N     int      `json:"n"`
	Edges [][2]int `json:"edges"`
	// Chi is the planted chromatic number.
	Chi               int  `json:"chi"`
	K                 int  `json:"k"`
	InstanceDependent bool `json:"instance_dependent,omitempty"`
	Parallel          int  `json:"parallel,omitempty"`
}

// baseGraph is a generated graph before relabeling.
type baseGraph struct {
	n     int
	edges [][2]int
	chi   int
}

// streamRNG derives an independent random stream for one purpose from the
// run seed, so workloads sharing a stream name share their inputs.
func streamRNG(seed int64, stream string) *rand.Rand {
	h := uint64(1469598103934665603)
	for i := 0; i < len(stream); i++ {
		h ^= uint64(stream[i])
		h *= 1099511628211
	}
	return rand.New(rand.NewSource(seed*1000003 ^ int64(h>>1)))
}

// relabel returns g under a uniformly random vertex permutation, with the
// edge list sorted in the new numbering, so neither vertex nor edge order
// carries any hint of the generator's structure.
func relabel(rng *rand.Rand, g baseGraph) (int, [][2]int) {
	perm := rng.Perm(g.n)
	edges := make([][2]int, len(g.edges))
	for i, e := range g.edges {
		a, b := perm[e[0]], perm[e[1]]
		if a > b {
			a, b = b, a
		}
		edges[i] = [2]int{a, b}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	return g.n, edges
}

// plantedPartite draws a graph with chromatic number exactly chi: the
// vertices fall into chi balanced parts (a proper chi-coloring, so
// χ ≤ chi), one representative per part forms a clique (so χ ≥ chi), and
// a fixed share density of the remaining cross-part pairs are edges. The
// exact edge count keeps the hardness of same-sized draws close together.
func plantedPartite(rng *rand.Rand, n, chi int, density float64) baseGraph {
	part := func(v int) int { return v % chi }
	var cands [][2]int
	var edges [][2]int
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if part(a) == part(b) {
				continue
			}
			if a < chi && b < chi {
				edges = append(edges, [2]int{a, b}) // the planted clique
				continue
			}
			cands = append(cands, [2]int{a, b})
		}
	}
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	m := int(density*float64(len(cands)) + 0.5)
	edges = append(edges, cands[:m]...)
	return baseGraph{n: n, edges: edges, chi: chi}
}

// job relabels base and wraps it with the workload's solve parameters.
func (w *workload) job(rng *rand.Rand, class int, base baseGraph) Job {
	n, edges := relabel(rng, base)
	return Job{
		Class: class, N: n, Edges: edges, Chi: base.chi,
		K: w.k, InstanceDependent: w.instanceDependent, Parallel: w.parallel,
	}
}

// The families' sizes are stratified, not drawn: the i-th graph of a list
// takes the i-th size of a fixed cycle, so every list of a given length
// holds the same mix of sizes and seeds vary only the graphs.

// Jobs returns the workload's seeded job list of the given length. The
// same seed and length always give the same list.
func (w *workload) Jobs(seed int64, count int) []Job {
	switch w.family {
	case familySymmetry:
		rng := streamRNG(seed, "symmetry")
		jobs := make([]Job, count)
		for i := range jobs {
			jobs[i] = w.job(rng, i, plantedPartite(rng, 24+i%9, 4, partiteDensity))
		}
		return jobs
	case familyProof:
		// unsat-proof and conquer share this stream: the same instances
		// solved sequentially and with cube-and-conquer.
		rng := streamRNG(seed, "proof")
		jobs := make([]Job, count)
		for i := range jobs {
			jobs[i] = w.job(rng, i, plantedPartite(rng, 36+i%6, 5, partiteDensity))
		}
		return jobs
	}
	panic(fmt.Sprintf("perfbench: unknown family %d", w.family))
}
