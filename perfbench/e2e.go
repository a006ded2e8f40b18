package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"
)

// setupStarts is how many daemon starts a run times for setup_s. A single
// start takes a few milliseconds and varies by a third from one start to
// the next, so a run reports the median of several, half timed before the
// load and half after it.
const setupStarts = 21

// windows is how many consecutive windows of completions a run's job list
// is cut into. Each end-to-end time is computed per window and the run
// reports the median window, so a stall of the machine that spans less
// than half the run leaves the result alone.
const windows = 4

// minJobs keeps at least ten samples above each window's p90 latency.
const minJobs = windows * 100

// End-to-end metric names and units, as in BENCHMARK.json.
var endToEndUnits = map[string]string{
	"setup_s":        "s",
	"jobs_per_s":     "1/s",
	"latency_p50_ms": "ms",
	"latency_p90_ms": "ms",
	"solved_frac":    "frac",
	"cpu_ms_per_job": "ms",
	"peak_rss_mb":    "MiB",
}

// bench holds what every pass of one run shares.
type bench struct {
	opts   options
	jobs   []Job
	bodies [][]byte
	client *http.Client
	// starts is how many daemon starts setup_s takes the median of.
	starts int
}

// newBench generates the run's job list.
func newBench(opts options, out io.Writer) (*bench, error) {
	w := opts.workload
	count := w.jobCount(opts.seconds)
	b := &bench{opts: opts, starts: setupStarts}
	if opts.smoke {
		count, b.starts = 2*windows, 2
	} else if count < minJobs {
		count = minJobs
	}
	count += (windows - count%windows) % windows
	b.jobs = w.Jobs(opts.seed, count)
	var err error
	if b.bodies, err = encodeBodies(b.jobs); err != nil {
		return nil, err
	}
	b.client = newClient(w.clients)
	fmt.Fprintf(out, "workload %s: %d jobs, %d closed-loop client(s), %d daemon workers, seed %d\n",
		w.name, len(b.jobs), w.clients, opts.workers, opts.seed)
	return b, nil
}

// startFresh starts a daemon and times it from exec to ready.
func (b *bench) startFresh(traceOn bool) (*daemon, time.Duration, error) {
	cfg := daemonConfig{bin: b.opts.gcolord, dir: b.opts.workdir, traceOn: traceOn}
	return startDaemon(cfg, b.opts.workers, b.client)
}

// timeStarts times n daemon starts, stopping each daemon once ready.
func (b *bench) timeStarts(n int) ([]float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		d, took, err := b.startFresh(false)
		if err != nil {
			return nil, err
		}
		d.stop()
		times = append(times, float64(took))
	}
	return times, nil
}

// session is the job list passing through one daemon, possibly in
// several segments.
type session struct {
	daemon *daemon
	setup  time.Duration
	outs   []outcome
	wall   time.Duration // summed over segments
	cpu    time.Duration // daemon CPU while segments ran
	rssMB  float64
	stats  map[string]any // /v1/stats after the last segment
	check  *answerCheck
}

// open starts a session's daemon.
func (b *bench) open(traceOn bool) (*session, error) {
	d, setup, err := b.startFresh(traceOn)
	if err != nil {
		return nil, err
	}
	return &session{daemon: d, setup: setup, outs: make([]outcome, len(b.jobs))}, nil
}

// segment drives jobs [lo, hi) of the list through the session's daemon,
// passing done on to drive.
func (s *session) segment(b *bench, lo, hi int, done func(completed int)) error {
	cpu0, err := s.daemon.procCPU()
	if err != nil {
		return err
	}
	outs, wall := drive(b.client, s.daemon.url, b.bodies[lo:hi], b.opts.workload.clients, done)
	cpu1, err := s.daemon.procCPU()
	if err != nil {
		return err
	}
	copy(s.outs[lo:hi], outs)
	s.wall += wall
	s.cpu += cpu1 - cpu0
	return nil
}

// finish reads the daemon's peak memory and counters once the whole list
// has passed, and verifies every answer. The daemon keeps running so the
// caller can read traces from it.
func (s *session) finish(b *bench) error {
	var err error
	if s.rssMB, err = s.daemon.peakRSS(); err != nil {
		return err
	}
	if err := getJSON(b.client, s.daemon.url+"/v1/stats", &s.stats); err != nil {
		return err
	}
	s.check = newAnswerCheck()
	for i, o := range s.outs {
		s.check.add(b.jobs[i], o)
	}
	return nil
}

// latencies returns the submit→result latencies in ms; a job without a
// verified answer misses every latency limit, so it sorts above all.
func (s *session) latencies(jobs []Job) []float64 {
	out := make([]float64, len(s.outs))
	for i, o := range s.outs {
		out[i] = ms(o.latency)
		if o.err != nil || verifyAnswer(jobs[i], o.snap) != nil {
			out[i] = math.MaxFloat64
		}
	}
	return out
}

// mark is the time and daemon CPU at a window boundary.
type mark struct {
	at  time.Time
	cpu time.Duration
}

// endToEndRun measures the end-to-end metrics with daemon tracing off.
func endToEndRun(opts options, out io.Writer) (report, error) {
	b, err := newBench(opts, out)
	if err != nil {
		return report{}, err
	}
	before := (b.starts + 1) / 2
	starts, err := b.timeStarts(before - 1)
	if err != nil {
		return report{}, err
	}
	s, err := b.open(false)
	if err != nil {
		return report{}, err
	}
	starts = append(starts, float64(s.setup))
	n := len(b.jobs)
	per := n / windows
	marks := make([]mark, windows+1)
	var mu sync.Mutex
	var markErr error
	setMark := func(i int) {
		cpu, err := s.daemon.procCPU()
		m := mark{time.Now(), cpu}
		mu.Lock()
		marks[i] = m
		markErr = errors.Join(markErr, err)
		mu.Unlock()
	}
	m0, err := readCPUTimes()
	if err == nil {
		setMark(0)
		err = s.segment(b, 0, n, func(completed int) {
			if completed%per == 0 {
				setMark(completed / per)
			}
		})
	}
	var m1 cpuTimes
	if err == nil {
		m1, err = readCPUTimes()
	}
	if err == nil {
		err = errors.Join(markErr, s.finish(b))
	}
	s.daemon.stop()
	if err != nil {
		return report{}, err
	}
	after, err := b.timeStarts(b.starts - before)
	if err != nil {
		return report{}, err
	}
	starts = append(starts, after...)

	lat := s.latencies(b.jobs)
	winLat := make([][]float64, windows)
	for i, o := range s.outs {
		w := o.rank / per
		winLat[w] = append(winLat[w], lat[i])
	}
	var rate, cpu, p50, p90 []float64
	for w := 0; w < windows; w++ {
		rate = append(rate, float64(per)/marks[w+1].at.Sub(marks[w].at).Seconds())
		cpu = append(cpu, ms(marks[w+1].cpu-marks[w].cpu)/float64(per))
		p50 = append(p50, quantile(winLat[w], 0.5))
		p90 = append(p90, quantile(winLat[w], 0.9))
	}
	fewest := per
	for w := range winLat {
		fewest = min(fewest, above(winLat[w], p90[w]))
	}
	fmt.Fprintf(out, "%d windows of %d jobs, at least %d latency samples above each window's p90; machine steal %.4f of CPU time\n",
		windows, per, fewest, stealFrac(m0, m1))
	for w := 0; w < windows; w++ {
		fmt.Fprintf(out, "window %d: %.2f jobs/s, %.3f ms cpu/job, latency p50 %.3f ms, p90 %.3f ms\n",
			w, rate[w], cpu[w], p50[w], p90[w])
	}
	fmt.Fprintf(out, "all %d jobs: %.2f jobs/s, latency p50 %.3f ms, p90 %.3f ms\n",
		n, float64(n)/s.wall.Seconds(), quantile(lat, 0.5), quantile(lat, 0.9))
	sort.Float64s(starts)
	fmt.Fprint(out, "daemon starts (ms):")
	for _, t := range starts {
		fmt.Fprintf(out, " %.2f", ms(time.Duration(t)))
	}
	fmt.Fprintln(out)
	rep := report{
		Correct:   s.check.err() == nil,
		Attempted: n,
		Failed:    n - s.check.verified,
		Metrics:   map[string]metric{},
	}
	for name, v := range map[string]float64{
		"setup_s":        time.Duration(median(starts)).Seconds(),
		"jobs_per_s":     median(rate),
		"latency_p50_ms": median(p50),
		"latency_p90_ms": median(p90),
		"solved_frac":    float64(s.check.verified) / float64(n),
		"cpu_ms_per_job": median(cpu),
		"peak_rss_mb":    s.rssMB,
	} {
		rep.Metrics[name] = metric{v, endToEndUnits[name]}
	}
	if err := s.check.err(); err != nil {
		return rep, &wrongAnswers{err}
	}
	return rep, nil
}
