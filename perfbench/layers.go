package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"repro/internal/autom"
	"repro/internal/encode"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pb"
	"repro/internal/pbsolver"
	"repro/internal/sbp"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/symgraph"
)

// Per-layer metric names and units, as in BENCHMARK.json.
var layerUnits = map[string]string{
	"httpapi.submit_ms_p50":       "ms",
	"service.queue_wait_ms_p50":   "ms",
	"service.queue_wait_ms_p90":   "ms",
	"service.cache_hit_frac":      "frac",
	"service.persist_ms_p50":      "ms",
	"autom.canon_ms_p50":          "ms",
	"autom.canon_nodes":           "count",
	"autom.canon_exact_frac":      "frac",
	"store.open_ms":               "ms",
	"store.put_us_p50":            "us",
	"store.get_us_p50":            "us",
	"journal.append_us_p50":       "us",
	"encode.build_ms_p50":         "ms",
	"encode.clauses":              "count",
	"symgraph.detect_ms_p50":      "ms",
	"symgraph.build_ms_p50":       "ms",
	"autom.search_ms_p50":         "ms",
	"symgraph.verify_ms_p50":      "ms",
	"symgraph.generators":         "count",
	"sbp.emit_ms_p50":             "ms",
	"sbp.perms":                   "count",
	"sbp.clauses":                 "count",
	"pbsolver.solve_ms_p50":       "ms",
	"pbsolver.conflicts":          "count",
	"pbsolver.propagations":       "count",
	"pbsolver.props_per_ms":       "1/ms",
	"pbsolver.reduces":            "count",
	"par.solve_ms_p50":            "ms",
	"par.cubes":                   "count",
	"par.cubes_refuted":           "count",
	"par.clauses_exported":        "count",
	"par.clauses_imported":        "count",
	"par.worker_busy_frac":        "frac",
	"par.speedup":                 "ratio",
	"obs.trace_cpu_overhead_frac": "frac",
	"machine.steal_frac":          "frac",
}

// probeCounts caps how many of a run's jobs (distinct graphs, in list
// order) the direct layer calls see, per family: enough samples for a
// median, few enough that the probes take seconds.
var probeCounts = map[family]int{familySymmetry: 24, familyProof: 10}

// storeOpens is how many times store.open_ms reopens the store.
const storeOpens = 5

// layerRun measures the per-layer metrics: the job list through an
// untraced and a traced daemon side by side (the difference is the
// tracing overhead; the traced daemon's span trees give queue waits,
// persist times and worker occupancy under load), then direct, timed
// calls into each layer's public functions on the same inputs.
func layerRun(opts options, out io.Writer) (report, error) {
	b, err := newBench(opts, out)
	if err != nil {
		return report{}, err
	}
	m0, err := readCPUTimes()
	if err != nil {
		return report{}, err
	}
	plain, traced, views, err := overheadPasses(b)
	if err != nil {
		return report{}, err
	}
	p, err := probe(b)
	if err != nil {
		return report{}, err
	}
	m1, err := readCPUTimes()
	if err != nil {
		return report{}, err
	}

	n := float64(len(b.jobs))
	var submits []float64
	for _, o := range plain.outs {
		submits = append(submits, ms(o.submit))
	}
	var queue, persist []float64
	var workerMS, solveMS float64
	for _, v := range views {
		for _, s := range v.Spans {
			for _, c := range s.Children {
				switch c.Name {
				case "queue":
					queue = append(queue, c.DurationMS)
				case "persist":
					persist = append(persist, c.DurationMS)
				case "solve":
					workers := 0
					for _, w := range c.Children {
						if w.Name == "solve.worker" {
							workers++
							workerMS += w.DurationMS
						}
					}
					solveMS += float64(workers) * c.DurationMS
				}
			}
		}
	}
	busy := p.parBusyFrac
	if solveMS > 0 { // the daemon ran cube-and-conquer jobs: use them, under load
		busy = workerMS / solveMS
	}
	stat := func(k string) float64 { f, _ := plain.stats[k].(float64); return f }
	m := map[string]float64{
		"httpapi.submit_ms_p50":       median(submits),
		"service.queue_wait_ms_p50":   quantile(queue, 0.5),
		"service.queue_wait_ms_p90":   quantile(queue, 0.9),
		"service.cache_hit_frac":      ratio(stat("cache_hits")+stat("dedup_joins"), stat("completed")),
		"service.persist_ms_p50":      median(persist),
		"par.worker_busy_frac":        busy,
		"obs.trace_cpu_overhead_frac": ratio(ms(traced.cpu-plain.cpu), ms(plain.cpu)),
		"machine.steal_frac":          stealFrac(m0, m1),
	}
	for k, v := range p.metrics {
		m[k] = v
	}
	rep := report{Attempted: 2*len(b.jobs) + p.attempted, Metrics: map[string]metric{}}
	for k, v := range m {
		rep.Metrics[k] = metric{v, layerUnits[k]}
	}
	fmt.Fprintf(out, "daemon cpu per job: %.3f ms untraced, %.3f ms traced; %d span trees; %d jobs probed directly\n",
		ms(plain.cpu)/n, ms(traced.cpu)/n, len(views), p.attempted)
	var failures []error
	for _, c := range []*answerCheck{plain.check, traced.check} {
		if err := c.err(); err != nil {
			failures = append(failures, err)
		}
		rep.Failed += len(c.failures)
	}
	failures = append(failures, p.failures...)
	rep.Failed += len(p.failures)
	rep.Correct = len(failures) == 0
	if !rep.Correct {
		return rep, &wrongAnswers{fmt.Errorf("%d failures, first: %w", len(failures), failures[0])}
	}
	return rep, nil
}

// overheadSegments is how many segments the job list is cut into for
// the tracing-overhead comparison.
const overheadSegments = 32

// overheadPasses drives the job list through an untraced and a traced
// daemon, both running side by side, segment by segment in ABBA order
// (untraced first on even segments, traced first on odd ones), so drift in
// the machine's speed during the run falls on both alike. Each daemon
// still sees the whole list in order. After each traced segment it reads
// the span trees the traced daemon's flight recorder still holds for that
// segment's jobs, newest first. Both daemons are stopped on return.
func overheadPasses(b *bench) (plain, traced *session, views []*obs.TraceView, err error) {
	if plain, err = b.open(false); err != nil {
		return nil, nil, nil, err
	}
	defer plain.daemon.stop()
	if traced, err = b.open(true); err != nil {
		return nil, nil, nil, err
	}
	defer traced.daemon.stop()
	n := len(b.jobs)
	for i := 0; i < overheadSegments; i++ {
		lo, hi := i*n/overheadSegments, (i+1)*n/overheadSegments
		order := []*session{plain, traced}
		if i%2 == 1 {
			order[0], order[1] = traced, plain
		}
		for _, s := range order {
			if err := s.segment(b, lo, hi, nil); err != nil {
				return nil, nil, nil, err
			}
		}
		kept, err := recentTraces(b, traced, lo, hi)
		if err != nil {
			return nil, nil, nil, err
		}
		views = append(views, kept...)
	}
	for _, s := range []*session{plain, traced} {
		if err := s.finish(b); err != nil {
			return nil, nil, nil, err
		}
	}
	return plain, traced, views, nil
}

// recentTraces reads the span trees of jobs [lo, hi) that the traced
// daemon's flight recorder still holds: those of the newest traceKeep
// submissions, less any evicted because they completed out of order.
func recentTraces(b *bench, s *session, lo, hi int) ([]*obs.TraceView, error) {
	var views []*obs.TraceView
	for i := hi - 1; i >= lo && i >= hi-traceKeep; i-- {
		o := s.outs[i]
		if o.err != nil {
			continue
		}
		var v obs.TraceView
		err := getJSON(b.client, s.daemon.url+"/v1/jobs/"+o.snap.ID+"/trace", &v)
		if errors.Is(err, errNotFound) {
			continue // completed out of order and already evicted
		}
		if err != nil {
			return nil, fmt.Errorf("trace of %s: %w", o.snap.ID, err)
		}
		views = append(views, &v)
	}
	return views, nil
}

// probeResult is what the direct layer calls measured.
type probeResult struct {
	metrics     map[string]float64
	parBusyFrac float64
	attempted   int
	failures    []error
}

// probe times direct calls into each layer on the run's first distinct
// graphs, mirroring what the daemon does with them: canonical labeling,
// encoding, symmetry detection and predicate emission, a sequential and a
// cube-and-conquer solve of the formula the daemon would solve, and the
// store and journal writes of the result. Both solves are verified
// against the planted χ, so the sequential and parallel engines must
// agree on every probed instance.
func probe(b *bench) (*probeResult, error) {
	w := b.opts.workload
	limit := probeCounts[w.family]
	if b.opts.smoke {
		limit = 2
	}
	// times holds each timed call's per-graph durations in ms and sums
	// each count's total over the probed graphs, both by metric name.
	times := map[string][]float64{}
	sums := map[string]float64{}
	clock := func(name string, f func()) {
		times[name] = append(times[name], ms(timed(f)))
	}
	var workerMS, parWallMS float64
	var probed []Job
	var keys []string
	var vals [][]byte
	res := &probeResult{}
	seen := map[int]bool{}
	ctx := context.Background()
	for _, j := range b.jobs {
		if len(probed) == limit {
			break
		}
		if seen[j.Class] {
			continue
		}
		seen[j.Class] = true
		probed = append(probed, j)
		g := toGraph(j)

		ag := autom.NewGraph(j.N)
		for _, e := range j.Edges {
			ag.AddEdge(e[0], e[1])
		}
		var canon *autom.Canonical
		clock("autom.canon_ms_p50", func() { canon = autom.CanonicalForm(ag, autom.CanonicalOptions{}) })
		sums["autom.canon_nodes"] += float64(canon.Nodes)
		if canon.Exact {
			sums["autom.canon_exact_frac"]++
		}

		var enc *encode.Encoding
		clock("encode.build_ms_p50", func() { enc = encode.Build(g, j.K, encode.SBPNone) })
		sums["encode.clauses"] += float64(enc.F.Stats().CNF)

		clock("symgraph.detect_ms_p50", func() { symgraph.Detect(enc.F, autom.Options{}) })
		var senc *symgraph.Encoding
		clock("symgraph.build_ms_p50", func() { senc = symgraph.Build(enc.F) })
		var found *autom.Result
		clock("autom.search_ms_p50", func() { found = autom.FindAutomorphisms(senc.G, autom.Options{}) })
		var verified []symgraph.LitPerm
		clock("symgraph.verify_ms_p50", func() {
			for _, p := range senc.LitPerms(found.Generators) {
				if symgraph.VerifyLitPerm(enc.F, p) {
					verified = append(verified, p)
				}
			}
		})
		sums["symgraph.generators"] += float64(len(verified))

		withSBP := encode.Build(g, j.K, encode.SBPNone)
		var st sbp.Stats
		clock("sbp.emit_ms_p50", func() { st = sbp.AddSBPs(withSBP.F, verified, sbp.Options{}) })
		sums["sbp.perms"] += float64(st.Generators)
		sums["sbp.clauses"] += float64(st.Clauses)

		// The formula the daemon solves: the encoding, plus lex-leader
		// predicates when the workload asks for instance-dependent
		// breaking. Each solve gets its own copy.
		formula := func() *pb.Formula {
			e := encode.Build(g, j.K, encode.SBPNone)
			if w.instanceDependent {
				sbp.AddSBPs(e.F, verified, sbp.Options{})
			}
			return e.F
		}
		f := formula()
		var seq pbsolver.Result
		clock("pbsolver.solve_ms_p50", func() { seq = pbsolver.Optimize(ctx, f, pbsolver.Options{}) })
		sums["pbsolver.conflicts"] += float64(seq.Stats.Conflicts)
		sums["pbsolver.propagations"] += float64(seq.Stats.Propagations)
		sums["pbsolver.reduces"] += float64(seq.Stats.Reduces)
		res.check(j, enc, "pbsolver.Optimize", seq)

		f = formula()
		tr := obs.NewTrace("probe", "probe")
		root := tr.StartSpan(nil, "solve")
		var pr par.Result
		clock("par.solve_ms_p50", func() {
			pr = par.Optimize(obs.ContextWithSpan(ctx, root), f, par.Options{Workers: b.opts.workers})
		})
		root.End()
		sums["par.cubes"] += float64(pr.Par.CubesGenerated)
		sums["par.cubes_refuted"] += float64(pr.Par.CubesRefuted)
		sums["par.clauses_exported"] += float64(pr.Par.ClausesExported)
		sums["par.clauses_imported"] += float64(pr.Par.ClausesImported)
		if s := tr.View().Find("solve"); s != nil {
			for _, c := range s.Children {
				if c.Name == "solve.worker" {
					workerMS += c.DurationMS
				}
			}
			parWallMS += float64(pr.Par.Workers) * s.DurationMS
		}
		res.check(j, enc, "par.Optimize", pr.Result)

		rec, err := json.Marshal(service.CacheRecord{
			Status: pbsolver.StatusOptimal, Chi: seq.Objective,
			CanonColoring: canonColoring(enc.ColoringFromModel(seq.Model), canon.Perm),
			Winner:        "pbs2", Runtime: seq.Runtime, Conflicts: seq.Stats.Conflicts,
		})
		if err != nil {
			return nil, err
		}
		keys = append(keys, fmt.Sprintf("%d/%x", j.K, canon.Hash))
		vals = append(vals, rec)
	}
	res.attempted = len(probed)
	res.parBusyFrac = ratio(workerMS, parWallMS)

	putUS, getUS, appendUS, openMS, err := probeStore(b, probed, keys, vals)
	if err != nil {
		return nil, err
	}
	res.metrics = sums
	for name, v := range times {
		res.metrics[name] = median(v)
	}
	seqMS, parMS := sum(times["pbsolver.solve_ms_p50"]), sum(times["par.solve_ms_p50"])
	res.metrics["autom.canon_exact_frac"] /= float64(len(probed))
	res.metrics["pbsolver.props_per_ms"] = ratio(sums["pbsolver.propagations"], seqMS)
	res.metrics["par.speedup"] = ratio(seqMS, parMS)
	res.metrics["store.open_ms"] = openMS
	res.metrics["store.put_us_p50"] = median(putUS)
	res.metrics["store.get_us_p50"] = median(getUS)
	res.metrics["journal.append_us_p50"] = median(appendUS)
	return res, nil
}

// check verifies a directly computed optimum against the planted χ.
func (p *probeResult) check(j Job, enc *encode.Encoding, what string, r pbsolver.Result) {
	if r.Status != pbsolver.StatusOptimal {
		p.failures = append(p.failures, fmt.Errorf("%s: status %v, want optimal", what, r.Status))
		return
	}
	if err := checkColoring(j, enc.ColoringFromModel(r.Model), r.Objective); err != nil {
		p.failures = append(p.failures, fmt.Errorf("%s: %w", what, err))
	}
}

// probeStore times Store.Put and Store.Get of the probed results' cache
// records, journal appends of the probed jobs, and reopening the store
// and journal just written.
func probeStore(b *bench, jobs []Job, keys []string, vals [][]byte) (putUS, getUS, appendUS []float64, openMS float64, err error) {
	dir := filepath.Join(b.opts.workdir, "probe-store")
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, nil, nil, 0, err
	}
	for i, k := range keys {
		var perr error
		putUS = append(putUS, us(timed(func() { perr = st.Put(k, vals[i]) })))
		if perr != nil {
			st.Close()
			return nil, nil, nil, 0, perr
		}
	}
	for _, k := range keys {
		var ok bool
		getUS = append(getUS, us(timed(func() { _, ok = st.Get(k) })))
		if !ok {
			st.Close()
			return nil, nil, nil, 0, fmt.Errorf("store lost key %s", k)
		}
	}
	if err := st.Close(); err != nil {
		return nil, nil, nil, 0, err
	}

	jr, err := service.OpenDiskJournal(filepath.Join(dir, "journal"), store.Options{}, nil)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	for i, j := range jobs {
		id := fmt.Sprintf("job-%d", i+1)
		e := service.JournalEntry{ID: id, N: j.N, Edges: j.Edges, Spec: service.JobSpec{K: j.K}, Submitted: time.Now()}
		var rerr, derr error
		appendUS = append(appendUS, us(timed(func() { rerr = jr.Record(e) })))
		appendUS = append(appendUS, us(timed(func() { derr = jr.Done(id) })))
		if rerr != nil || derr != nil {
			jr.Close()
			return nil, nil, nil, 0, fmt.Errorf("journal %s: record %v, done %v", id, rerr, derr)
		}
	}
	if err := jr.Close(); err != nil {
		return nil, nil, nil, 0, err
	}

	var opens []float64
	for i := 0; i < storeOpens; i++ {
		var be *service.DiskBackend
		var dj *service.DiskJournal
		var berr, jerr error
		d := timed(func() {
			be, berr = service.OpenDiskBackend(dir)
			dj, jerr = service.OpenDiskJournal(filepath.Join(dir, "journal"), store.Options{}, nil)
		})
		if be != nil {
			be.Close()
		}
		if dj != nil {
			dj.Close()
		}
		if berr != nil || jerr != nil {
			return nil, nil, nil, 0, fmt.Errorf("reopen store: backend %v, journal %v", berr, jerr)
		}
		opens = append(opens, ms(d))
	}
	return putUS, getUS, appendUS, median(opens), nil
}

// canonColoring reindexes a coloring by canonical position, the way the
// service stores records.
func canonColoring(coloring []int, perm autom.Perm) []int {
	out := make([]int, len(coloring))
	for v, c := range coloring {
		out[perm[v]] = c
	}
	return out
}

func toGraph(j Job) *graph.Graph {
	g := graph.New("perfbench", j.N)
	for _, e := range j.Edges {
		g.AddEdge(e[0], e[1])
	}
	return g
}
