// Command perfbench is the repository's end-to-end benchmark. Each run
// starts a real gcolord as a child process, drives one workload's seeded,
// fixed-length job list through it from closed-loop clients, verifies
// every answer, and prints every metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// daemon tracing off. With --trace 1 the run drives the same job list
// through an untraced and a traced daemon and then times direct calls
// into each layer's public functions on the same inputs, and the metrics
// are the per-layer ones.
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	bash perfbench/run.sh --workload symmetry --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload conquer --seed 1 --seconds 30 --trace 1
//	bash perfbench/run.sh --workload unsat-proof --seed 1 --seconds 1 --trace 0 --smoke
//
// A wrong or missing answer fails the run: the JSON line reports
// "correct": false and the exit code is 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are one invocation's settings.
type options struct {
	workload *workload
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	gcolord  string
	workdir  string
	workers  int
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the benchmark, prints its report to stdout and
// returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: symmetry, unsat-proof or conquer")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 30, "nominal run length; sets the job-list length")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics with tracing off, 1 = per-layer metrics")
	smoke := fs.Bool("smoke", false, "a few jobs per workload and short probes, to check the plumbing")
	gcolord := fs.String("gcolord", ".bench_build/gcolord", "gcolord binary to start")
	workdir := fs.String("workdir", ".bench_build", "directory for stores, logs and other run files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %g)\n", *name, *trace, *seconds)
		return 2
	}
	opts := options{
		workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke,
		gcolord: *gcolord, workers: runtime.NumCPU(),
	}
	if _, err := os.Stat(opts.gcolord); err != nil {
		fmt.Fprintf(stderr, "perfbench: gcolord binary: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	opts.workdir, err = os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(opts.workdir)

	var rep report
	if opts.trace {
		rep, err = layerRun(opts, stdout)
	} else {
		rep, err = endToEndRun(opts, stdout)
	}
	var wrong *wrongAnswers
	switch {
	case errors.As(err, &wrong):
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		// Print the failing result line; the exit code marks the run bad.
	case err != nil:
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	printMetrics(stdout, rep.Metrics)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// wrongAnswers reports that the run finished but some answers failed
// verification; the run still prints its result line.
type wrongAnswers struct{ err error }

func (w *wrongAnswers) Error() string { return w.err.Error() }

// printMetrics writes one human-readable line per metric.
func printMetrics(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-34s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}
