package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"

	"repro/internal/core"
)

func TestJobListIsByteIdenticalForASeed(t *testing.T) {
	for _, w := range workloads {
		a, err := json.Marshal(w.Jobs(7, 60))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(w.Jobs(7, 60))
		c, _ := json.Marshal(w.Jobs(8, 60))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two job lists from seed 7 differ", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 give the same job list", w.name)
		}
	}
}

func TestProofWorkloadsShareTheirInstances(t *testing.T) {
	seq, _ := workloadByName("unsat-proof")
	con, _ := workloadByName("conquer")
	a, b := seq.Jobs(3, 20), con.Jobs(3, 20)
	for i := range a {
		if fmt.Sprint(a[i].Edges) != fmt.Sprint(b[i].Edges) || a[i].Chi != b[i].Chi {
			t.Fatalf("job %d differs between unsat-proof and conquer", i)
		}
	}
	if seq.jobCount(15) != con.jobCount(15) {
		t.Errorf("list lengths differ: %d vs %d", seq.jobCount(15), con.jobCount(15))
	}
}

// triangle plus a pendant vertex: χ = 3.
var smallJob = Job{Class: 1, N: 4, Edges: [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}}, Chi: 3, K: 5}

func snapshot(coloring []int, chi int) jobSnapshot {
	return jobSnapshot{ID: "job-1", State: "done", Result: &jobResult{
		Status: statusOptimal, Solved: true, Chi: chi, Coloring: coloring,
	}}
}

func TestVerifierRejectsBadAnswers(t *testing.T) {
	if err := verifyAnswer(smallJob, snapshot([]int{0, 1, 2, 0}, 3)); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	bad := map[string]jobSnapshot{
		"improper coloring":        snapshot([]int{0, 1, 1, 0}, 3),
		"color count differs":      snapshot([]int{0, 1, 2, 3}, 3),
		"wrong χ":                  snapshot([]int{0, 1, 2, 0}, 4),
		"short coloring":           snapshot([]int{0, 1, 2}, 3),
		"color outside K":          snapshot([]int{0, 1, 7, 0}, 3),
		"failed job":               {ID: "job-1", State: "failed", Error: "boom"},
		"not a definitive optimum": {ID: "job-1", State: "done", Result: &jobResult{Status: 1, Coloring: []int{0, 1, 2, 0}, Chi: 3}},
	}
	for name, snap := range bad {
		if err := verifyAnswer(smallJob, snap); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A χ that is right for the coloring but not the planted one.
	wrongPlant := smallJob
	wrongPlant.Chi = 4
	if err := verifyAnswer(wrongPlant, snapshot([]int{0, 1, 2, 0}, 3)); err == nil {
		t.Error("answer disagreeing with the planted χ accepted")
	}
}

func TestAnswerCheckRejectsDisagreeingIsomorphs(t *testing.T) {
	c := newAnswerCheck()
	c.add(smallJob, outcome{snap: snapshot([]int{0, 1, 2, 0}, 3)})
	other := smallJob
	other.Chi = 4 // a mislabeled relabeling whose answer passes on its own
	c.add(other, outcome{snap: snapshot([]int{0, 1, 2, 3}, 4)})
	if c.err() == nil || c.verified != 1 {
		t.Fatalf("disagreeing χ within a class not caught (verified %d)", c.verified)
	}
}

// TestClientCountsCorruptedAnswersAsFailures drives a stand-in daemon that
// answers every job with an improper coloring.
func TestClientCountsCorruptedAnswersAsFailures(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"id":"job-1"}`)
		case strings.HasSuffix(r.URL.Path, "/events"):
			fmt.Fprintln(w, `{"type":"progress"}`)
			fmt.Fprintln(w, `{"type":"result","job":{"id":"job-1","state":"done","result":{"status":2,"solved":true,"chi":3,"coloring":[0,0,2,0]}}}`)
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	jobs := []Job{smallJob, smallJob}
	bodies, err := encodeBodies(jobs)
	if err != nil {
		t.Fatal(err)
	}
	outs, _ := drive(newClient(2), srv.URL, bodies, 2, nil)
	c := newAnswerCheck()
	for i, o := range outs {
		if o.err != nil {
			t.Fatalf("job %d: %v", i, o.err)
		}
		c.add(jobs[i], o)
	}
	if c.err() == nil || len(c.failures) != 2 {
		t.Fatalf("corrupted answers passed: %d failures", len(c.failures))
	}
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	check := func(kind string, list []struct{ Name, Unit string }, units map[string]string) {
		if len(list) != len(units) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(list), len(units))
		}
		for _, m := range list {
			if units[m.Name] != m.Unit {
				t.Errorf("%s metric %s: unit %q in BENCHMARK.json, %q in the code", kind, m.Name, m.Unit, units[m.Name])
			}
		}
	}
	check("end-to-end", spec.EndToEnd, endToEndUnits)
	check("per-layer", spec.PerLayer, layerUnits)
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload in smoke mode against a freshly built
// gcolord, with and without tracing, and checks that each run verifies
// its answers and prints every metric with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts gcolord")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "gcolord")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/gcolord").CombinedOutput(); err != nil {
		t.Fatalf("build gcolord: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", w.name, "--seed", "3", "--trace", trace, "--smoke",
				"--gcolord", bin, "--workdir", dir}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s%s", w.name, trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				t.Fatalf("%s trace %s: last line: %v", w.name, trace, err)
			}
			units := endToEndUnits
			if trace == "1" {
				units = layerUnits
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 || len(rep.Metrics) != len(units) {
				t.Errorf("%s trace %s: report %+v", w.name, trace, rep)
			}
			for name, unit := range units {
				if m, ok := rep.Metrics[name]; !ok || m.Unit != unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w.name, trace, name, m, unit)
				}
				if !strings.Contains(stdout.String(), name) {
					t.Errorf("%s trace %s: %s not printed", w.name, trace, name)
				}
			}
		}
	}
}

// fakeModeEnv makes the test binary act as a stand-in gcolord whose
// answers are wrong in the named way.
const fakeModeEnv = "PERFBENCH_FAKE_GCOLORD"

func TestMain(m *testing.M) {
	if mode := os.Getenv(fakeModeEnv); mode != "" {
		os.Exit(fakeDaemon(mode, os.Args[1:]))
	}
	os.Exit(m.Run())
}

// fakeDaemon serves the parts of the gcolord API a run uses. It solves
// every job for real, then corrupts the answer: "improper" reports a
// coloring with one edge's ends sharing a color, "wrongchi" splits a color
// class, so the coloring stays proper but reports one color too many.
func fakeDaemon(mode string, args []string) int {
	fs := flag.NewFlagSet("gcolord", flag.ContinueOnError)
	addrFile := fs.String("addr.file", "", "")
	fs.String("addr", "", "")
	fs.Int("workers", 0, "")
	fs.String("timeout", "", "")
	fs.String("req.timeout", "", "")
	fs.String("drain", "", "")
	fs.Int("queue", 0, "")
	fs.Int("trace.keep", 0, "")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var mu sync.Mutex
	answers := map[string]string{}
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, `{}`) })
	mux.HandleFunc("/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req jobRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		g := toGraph(Job{N: req.N, Edges: req.Edges})
		out := core.Solve(r.Context(), g, core.Config{K: req.K})
		coloring, chi := out.Coloring, out.Chi
		if mode == "improper" {
			e := req.Edges[0]
			coloring[e[0]] = coloring[e[1]]
		} else {
			used := map[int]int{}
			for _, c := range coloring {
				used[c]++
			}
			fresh := 0
			for used[fresh] > 0 {
				fresh++
			}
			for v, c := range coloring {
				if used[c] > 1 {
					coloring[v] = fresh
					break
				}
			}
			chi++
		}
		res, _ := json.Marshal(jobSnapshot{State: "done", Result: &jobResult{
			Status: statusOptimal, Solved: true, Chi: chi, Coloring: coloring,
		}})
		mu.Lock()
		id := fmt.Sprintf("job-%d", len(answers)+1)
		answers[id] = string(res)
		mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":%q}`, id)
	})
	mux.HandleFunc("/v1/jobs/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/v1/jobs/"), "/events")
		mu.Lock()
		res := answers[id]
		mu.Unlock()
		fmt.Fprintf(w, `{"type":"result","job":%s}`+"\n", res)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 1
	}
	if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
		return 1
	}
	srv := &http.Server{Handler: mux}
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGTERM)
		<-sig
		srv.Close()
	}()
	_ = srv.Serve(ln)
	return 0
}

// TestRunFailsOnWrongAnswers runs the whole benchmark against a daemon
// whose colorings are corrupted or whose χ is wrong: the run must print a
// result line with "correct": false, count every job as failed, and exit 1.
func TestRunFailsOnWrongAnswers(t *testing.T) {
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"improper", "wrongchi"} {
		t.Setenv(fakeModeEnv, mode)
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", "symmetry", "--seed", "3", "--trace", "0", "--smoke",
			"--gcolord", self, "--workdir", t.TempDir()}, &stdout, &stderr)
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			t.Fatalf("%s: last line: %v\n%s", mode, err, stderr.String())
		}
		if code != 1 || rep.Correct || rep.Failed != rep.Attempted || rep.Metrics["solved_frac"].Value != 0 {
			t.Errorf("%s: exit %d, report %+v", mode, code, rep)
		}
	}
}
