package main

import "fmt"

// statusOptimal is pbsolver.StatusOptimal on the wire.
const statusOptimal = 2

// verifyAnswer checks one job's terminal snapshot against what the
// generator planted: a definitive optimal answer whose coloring is proper
// on the graph as submitted, uses exactly the reported χ colors, and
// reports the planted χ.
func verifyAnswer(j Job, snap jobSnapshot) error {
	if snap.State != "done" || snap.Result == nil {
		return fmt.Errorf("job %s ended %q without a result (%s)", snap.ID, snap.State, snap.Error)
	}
	r := snap.Result
	if !r.Solved || r.Status != statusOptimal {
		return fmt.Errorf("job %s: not a definitive optimum (status %d, solved %v)", snap.ID, r.Status, r.Solved)
	}
	if err := checkColoring(j, r.Coloring, r.Chi); err != nil {
		return fmt.Errorf("job %s: %w", snap.ID, err)
	}
	return nil
}

// checkColoring verifies a coloring and its claimed χ against the job.
func checkColoring(j Job, coloring []int, chi int) error {
	if len(coloring) != j.N {
		return fmt.Errorf("coloring has %d entries for %d vertices", len(coloring), j.N)
	}
	used := map[int]bool{}
	for v, c := range coloring {
		if c < 0 || c >= j.K {
			return fmt.Errorf("vertex %d has color %d outside [0,%d)", v, c, j.K)
		}
		used[c] = true
	}
	for _, e := range j.Edges {
		if coloring[e[0]] == coloring[e[1]] {
			return fmt.Errorf("edge (%d,%d) joins two vertices of color %d", e[0], e[1], coloring[e[0]])
		}
	}
	if len(used) != chi {
		return fmt.Errorf("coloring uses %d colors but χ is reported as %d", len(used), chi)
	}
	if chi != j.Chi {
		return fmt.Errorf("reported χ %d, planted χ %d", chi, j.Chi)
	}
	return nil
}

// answerCheck accumulates the per-run verdicts: every answer on its own,
// and agreement of χ across each isomorphism class.
type answerCheck struct {
	classChi map[int]int
	verified int
	failures []error
}

func newAnswerCheck() *answerCheck { return &answerCheck{classChi: map[int]int{}} }

// add records one job's outcome; a transport error or a wrong answer
// counts as a failure.
func (c *answerCheck) add(j Job, o outcome) {
	err := o.err
	if err == nil {
		err = verifyAnswer(j, o.snap)
	}
	if err == nil {
		chi := o.snap.Result.Chi
		if prev, ok := c.classChi[j.Class]; ok && prev != chi {
			err = fmt.Errorf("job %s: χ %d disagrees with χ %d of an isomorphic submission", o.snap.ID, chi, prev)
		} else {
			c.classChi[j.Class] = chi
		}
	}
	if err != nil {
		c.failures = append(c.failures, err)
		return
	}
	c.verified++
}

func (c *answerCheck) err() error {
	if len(c.failures) == 0 {
		return nil
	}
	return fmt.Errorf("%d wrong or missing answers, first: %w", len(c.failures), c.failures[0])
}
