package main

import (
	"fmt"
	"math"
	"runtime"
)

type family int

const (
	familySymmetry family = iota
	familyProof
)

// partiteDensity is the share of cross-part vertex pairs that are edges
// in the planted-partite families.
const partiteDensity = 0.45

// workload is one traffic mix: which inputs, which solve parameters, and
// how many closed-loop clients submit them.
type workload struct {
	name   string
	family family
	// clients is the number of closed-loop clients, each with one request
	// outstanding.
	clients int
	// rate is about the completion rate in jobs/s on a 2-vCPU machine.
	// It turns --seconds into a fixed job count, so a run always does
	// the same work for the same seed and length however fast it goes.
	rate float64

	k                 int
	instanceDependent bool
	parallel          int
}

// The workloads, and why each was chosen. Clients are closed loops: each
// sends its next job only after the previous one returned.
var workloads = []*workload{
	// The paper's instance-dependent flow: symmetry detection and
	// verification do about 90% of the work here and almost none
	// anywhere else.
	{
		name: "symmetry", family: familySymmetry, clients: 2, rate: 22,
		k: 10, instanceDependent: true,
	},
	// Optimality proofs: pbsolver CDCL (BCP and conflict analysis) does
	// nearly all the work. k=8 rather than 10 keeps a proof near 80 ms,
	// so a run holds enough jobs for a p90 in each window.
	{
		name: "unsat-proof", family: familyProof, clients: 2, rate: 26,
		k: 8,
	},
	// The unsat-proof list, with cube-and-conquer on the same cores: par
	// cube generation, worker scheduling and clause exchange show only
	// here. Same rate, so both workloads solve the same list.
	{
		name: "conquer", family: familyProof, clients: 1, rate: 26,
		k: 8, parallel: runtime.NumCPU(),
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// jobCount is the fixed list length for a run of the given length.
func (w *workload) jobCount(seconds float64) int {
	return int(math.Ceil(seconds * w.rate))
}
