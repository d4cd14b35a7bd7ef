package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"wlansim/internal/core"
	"wlansim/internal/measure"
	"wlansim/internal/service"
	"wlansim/internal/service/store"
)

// The service workload drives an in-process wlansimd (service.New +
// service.NewHandler on a 127.0.0.1 listener) with two closed-loop HTTP
// clients. Each client POSTs a small fig6 job and reads its NDJSON stream to
// EOF before taking the next job from one fixed, seed-generated sequence of
// three classes: cold (a novel seed: every point computed and stored),
// overlap (half the grid already stored) and warm (a repeat: every point
// served, part of them from the disk tier, because the memory tier holds
// fewer points than the run stores).

const (
	serviceClients = 2
	// memTierEntries sizes the memory tier of the store well below the
	// points one run stores, so warm jobs read the disk tier too.
	memTierEntries = 64
	// memEntryBytes is store.Memory's budget charge per point.
	memEntryBytes = 48 + 64
	jobPackets    = 2
	jobPSDULen    = 60
)

// jobClass is the kind of a job in the sequence.
type jobClass int

const (
	cold jobClass = iota
	overlap
	warm
)

func (c jobClass) String() string { return [...]string{"cold", "overlap", "warm"}[c] }

// genJob is one job of the sequence.
type genJob struct {
	idx   int
	class jobClass
	spec  service.SweepSpec
	// ref is the cold job an overlap or warm job builds on (-1 for cold);
	// the client waits until it has completed.
	ref  int
	done chan struct{}
}

// jobGen hands out the seed's job sequence in order. The sequence is a
// function of the seed and the job index alone; timing only decides how
// long a prefix of it a run gets through.
type jobGen struct {
	mu    sync.Mutex
	rng   *rand.Rand
	seed  int64
	jobs  []*genJob
	colds []int
	block []jobClass
}

func newJobGen(runSeed int64) *jobGen {
	return &jobGen{rng: rand.New(rand.NewSource(deriveSeed(runSeed, labelService))), seed: runSeed}
}

// coldGrid is the LNA compression-point grid (dBm) of every cold job; a
// fixed grid keeps the cost of a cold job the same from seed to seed.
var coldGrid = []float64{-25, -15, -10, -5}

// jobSpec is the canonical fig6 spec (adjacent channel on) of one job.
func jobSpec(specSeed int64, values []float64) service.SweepSpec {
	return service.SweepSpec{
		Kind: "fig6", RateMbps: 24, PSDULen: jobPSDULen, Packets: jobPackets,
		Seed: specSeed, PowerDBm: -40, Adjacent: true, Values: values,
	}
}

func (g *jobGen) take() *genJob {
	g.mu.Lock()
	defer g.mu.Unlock()
	idx := len(g.jobs)
	j := &genJob{idx: idx, ref: -1, done: make(chan struct{})}
	// Overlap and warm jobs refer to a cold job at least three positions
	// back.
	eligible := 0
	for eligible < len(g.colds) && g.colds[eligible] <= idx-3 {
		eligible++
	}
	// Blocks of ten jobs hold 4 cold, 3 overlap and 3 warm jobs in a
	// seed-shuffled order, so every prefix of the sequence has nearly the
	// same mix; the first block starts with three cold jobs so that later
	// ones have something to reuse.
	if len(g.block) == 0 {
		g.block = []jobClass{cold, cold, cold, cold, overlap, overlap, overlap, warm, warm, warm}
		lo := 0
		if idx == 0 {
			lo = 3
		}
		g.rng.Shuffle(len(g.block)-lo, func(a, b int) {
			g.block[lo+a], g.block[lo+b] = g.block[lo+b], g.block[lo+a]
		})
	}
	j.class, g.block = g.block[0], g.block[1:]
	if eligible == 0 {
		j.class = cold
	}
	switch j.class {
	case cold:
		j.spec = jobSpec(deriveSeed(g.seed, labelService, 1, uint64(idx)), coldGrid)
		g.colds = append(g.colds, idx)
	default:
		j.ref = g.colds[g.rng.Intn(eligible)]
		rs := g.jobs[j.ref].spec
		j.spec = rs
		if j.class == overlap {
			// Two stored values plus two values unique to this job.
			perm := g.rng.Perm(len(rs.Values))[:2]
			sort.Ints(perm)
			j.spec.Values = []float64{-31 - 1e-3*float64(idx), rs.Values[perm[0]], rs.Values[perm[1]], -4 + 1e-3*float64(idx)}
		}
	}
	g.jobs = append(g.jobs, j)
	return j
}

// refDone returns the completion channel of job i.
func (g *jobGen) refDone(i int) chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.jobs[i].done
}

// jobRecord is what a client observed for one job.
type jobRecord struct {
	job                    *genJob
	start                  time.Time
	latency, submit, first time.Duration
	streamed               []measure.Point
	status                 *service.JobStatus
	err                    error
}

// timedStore wraps the service's store and times every call from outside.
type timedStore struct {
	store.Store
	mu                  sync.Mutex
	gets, puts, flushes int
	getT, putT, flushT  time.Duration
}

func (t *timedStore) Get(key uint64) (measure.Point, bool) {
	t0 := time.Now()
	p, ok := t.Store.Get(key)
	d := time.Since(t0)
	t.mu.Lock()
	t.gets++
	t.getT += d
	t.mu.Unlock()
	return p, ok
}

func (t *timedStore) Put(key uint64, p measure.Point) error {
	t0 := time.Now()
	err := t.Store.Put(key, p)
	d := time.Since(t0)
	t.mu.Lock()
	t.puts++
	t.putT += d
	t.mu.Unlock()
	return err
}

func (t *timedStore) Flush() error {
	t0 := time.Now()
	err := t.Store.Flush()
	d := time.Since(t0)
	t.mu.Lock()
	t.flushes++
	t.flushT += d
	t.mu.Unlock()
	return err
}

// daemon is one in-process wlansimd with its store, listener and client.
type daemon struct {
	dir    string
	st     store.Store
	timed  *timedStore
	mgr    *service.Manager
	srv    *http.Server
	served chan error
	client *http.Client
	base   string
}

// startDaemon opens a disk-backed tiered store in a fresh directory, starts
// the manager and the HTTP server on 127.0.0.1, and connects a client. A
// traced daemon wraps the store in a timedStore and gets a real clock
// scaled by 1000, so the millisecond timestamps of Job.Snapshot carry
// microseconds.
func startDaemon(dir string, traced bool) (*daemon, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	disk, err := store.OpenDisk(dir, 0)
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, st: store.NewTiered(store.NewMemory(memTierEntries*memEntryBytes), disk)}
	epoch := time.Now()
	clock := func() time.Duration { return time.Since(epoch) }
	if traced {
		d.timed = &timedStore{Store: d.st}
		d.st = d.timed
		clock = func() time.Duration { return 1000 * time.Since(epoch) }
	}
	d.mgr = service.New(service.Config{Store: d.st, Workers: 2, JobWorkers: 1, Clock: clock})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.mgr.Drain()
		d.st.Close()
		return nil, err
	}
	d.srv = &http.Server{Handler: service.NewHandler(d.mgr)}
	d.served = make(chan error, 1)
	go func() { d.served <- d.srv.Serve(ln) }()
	d.base = "http://" + ln.Addr().String()
	d.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serviceClients,
		MaxIdleConnsPerHost: serviceClients,
	}}
	return d, nil
}

// stop drains the manager (flushing the store), shuts the server down and
// waits for it, and closes the store. It returns the segment size on disk.
func (d *daemon) stop() (int64, error) {
	d.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	serr := d.srv.Shutdown(ctx)
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		serr = errors.Join(serr, err)
	}
	derr := d.mgr.Drain()
	cerr := d.st.Close()
	var size int64
	if fi, err := os.Stat(filepath.Join(d.dir, store.SegmentFile)); err == nil {
		size = fi.Size()
	}
	return size, errors.Join(serr, derr, cerr, os.RemoveAll(d.dir))
}

// streamLine is one NDJSON record of the stream endpoint.
type streamLine struct {
	Index  int                `json:"index"`
	Point  *measure.Point     `json:"point"`
	Status *service.JobStatus `json:"status"`
}

// runJob submits one spec and reads its stream to EOF.
func (d *daemon) runJob(j *genJob) jobRecord {
	rec := jobRecord{job: j}
	body, err := json.Marshal(j.spec)
	if err != nil {
		rec.err = err
		return rec
	}
	t0 := time.Now()
	rec.start = t0
	resp, err := d.client.Post(d.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		rec.err = err
		return rec
	}
	var st service.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	rec.submit = time.Since(t0)
	if resp.StatusCode != http.StatusAccepted {
		rec.err = fmt.Errorf("POST /v1/jobs: HTTP %d", resp.StatusCode)
		return rec
	}
	if err != nil {
		rec.err = err
		return rec
	}
	resp, err = d.client.Get(d.base + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		rec.err = err
		return rec
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rec.err = fmt.Errorf("GET stream: HTTP %d", resp.StatusCode)
		return rec
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			rec.err = err
			return rec
		}
		switch {
		case line.Point != nil:
			if len(rec.streamed) == 0 {
				rec.first = time.Since(t0)
			}
			rec.streamed = append(rec.streamed, *line.Point)
		case line.Status != nil:
			rec.status = line.Status
		}
	}
	rec.latency = time.Since(t0)
	if err := sc.Err(); err != nil {
		rec.err = err
	} else if rec.status == nil || rec.status.State != service.JobDone || rec.status.Series == nil {
		rec.err = errors.New("stream ended without a done status")
	}
	return rec
}

// drive runs the two closed-loop clients until budget elapses; jobs in
// flight at the deadline complete.
func (d *daemon) drive(gen *jobGen, budget time.Duration) ([]jobRecord, time.Duration) {
	var mu sync.Mutex
	var recs []jobRecord
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < budget {
				j := gen.take()
				if j.ref >= 0 {
					<-gen.refDone(j.ref)
				}
				rec := d.runJob(j)
				close(j.done)
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return recs, time.Since(start)
}

// inProcess computes, per spec seed, the in-process harness series over the
// union of the values the run's jobs asked for; a point depends only on
// (seed, value), so this is each job's in-process result. It uses
// serviceClients goroutines.
func inProcess(recs []jobRecord) (map[int64]map[float64]measure.Point, error) {
	values := map[int64]map[float64]bool{}
	for _, r := range recs {
		s := r.job.spec
		if values[s.Seed] == nil {
			values[s.Seed] = map[float64]bool{}
		}
		for _, v := range s.Values {
			values[s.Seed][v] = true
		}
	}
	seeds := make([]int64, 0, len(values))
	for s := range values {
		seeds = append(seeds, s)
	}
	out := make(map[int64]map[float64]measure.Point, len(seeds))
	var mu sync.Mutex
	var firstErr error
	work := make(chan int64)
	var wg sync.WaitGroup
	for w := 0; w < serviceClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				var vs []float64
				for v := range values[s] {
					vs = append(vs, v)
				}
				sort.Float64s(vs)
				series, err := fig6InProcess(jobSpec(s, vs))
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if err == nil {
					m := map[float64]measure.Point{}
					for _, p := range series.Points {
						m[p.X] = p
					}
					out[s] = m
				}
				mu.Unlock()
			}
		}()
	}
	for _, s := range seeds {
		work <- s
	}
	close(work)
	wg.Wait()
	return out, firstErr
}

// fig6InProcess runs the service's fig6 kind in-process: the same base
// configuration and harness call the daemon makes for a canonical spec.
func fig6InProcess(spec service.SweepSpec) (*measure.Series, error) {
	base := core.Figure6Config()
	base.RateMbps = spec.RateMbps
	base.PSDULen = spec.PSDULen
	base.Packets = spec.Packets
	base.Seed = spec.Seed
	base.WantedPowerDBm = spec.PowerDBm
	base.Workers = 1
	return core.CompressionPointSweep(base, spec.Values, spec.Adjacent)
}

// verifyJobs counts the failed jobs: transport or HTTP errors, and any
// streamed or final point that differs from the in-process result.
func verifyJobs(recs []jobRecord, want map[int64]map[float64]measure.Point) int {
	failed := 0
	for _, r := range recs {
		if r.err != nil {
			failed++
			continue
		}
		exp := want[r.job.spec.Seed]
		ok := len(r.streamed) == len(r.job.spec.Values) && len(r.status.Series.Points) == len(r.job.spec.Values)
		for i, v := range r.job.spec.Values {
			if !ok {
				break
			}
			p, have := exp[v]
			ok = have && samePoint(p, r.streamed[i]) && samePoint(p, r.status.Series.Points[i])
		}
		if !ok {
			failed++
		}
	}
	return failed
}

func serviceGolden(runSeed int64) (uint64, error) {
	s, err := fig6InProcess(newJobGen(runSeed).take().spec)
	if err != nil {
		return 0, err
	}
	return digestPoints(s.Points), nil
}

// runService runs the service workload in either mode.
func runService(o options) (*outcome, error) {
	out := newOutcome()
	var d *daemon
	k := 0
	setupS, err := measureSetup(setupRepeats, func() error {
		k++
		nd, err := startDaemon(filepath.Join(o.outDir, fmt.Sprintf("store-%d-%d", os.Getpid(), k)), false)
		if err != nil {
			return err
		}
		d = nd
		// Warm-up job: connection, codecs and the fig6 pipeline, on a seed
		// no timed job uses.
		return d.runJob(&genJob{spec: jobSpec(deriveSeed(o.seed, labelService, 2, uint64(k)), coldGrid[:2])}).err
	}, func() error {
		_, err := d.stop()
		return err
	})
	if err != nil {
		if d != nil {
			d.stop()
		}
		return nil, err
	}
	budget := o.full()
	if o.trace {
		budget = o.half()
	}
	heap := startHeapSampler(2 * time.Millisecond)
	c0 := readCounters()
	recs, elapsed := d.drive(newJobGen(o.seed), budget)
	counters := readCounters().sub(c0)
	heapPeak, heapMax := heap.Stop()
	if _, err := d.stop(); err != nil {
		return nil, err
	}
	cls := classLatencies(recs)
	for c, l := range cls {
		name := "job_" + jobClass(c).String()
		out.report[name+"_p50_ms"] = l.p(0.5)
		out.report[name+"_p90_ms"] = l.p(0.9)
		out.report[name+"_samples"] = len(l)
	}
	// Two clients overlap, so CPU time is not attributable to one job: the
	// process CPU time of the timed region over the jobs completed in it.
	cpuPerJob := float64(counters.cpu.Microseconds()) / 1e3 / float64(len(recs))
	out.report["jobs_per_s"] = float64(len(recs)) / elapsed.Seconds()
	out.report["cpu_ms_per_job"] = cpuPerJob
	out.report["heap_peak_mib"] = heapPeak
	out.report["heap_max_sample_mib"] = heapMax
	out.report["setup_s"] = setupS

	all := recs
	if o.trace {
		// Traced half: a fresh daemon with the timing store and clock,
		// running the same job sequence from its start.
		td, err := startDaemon(filepath.Join(o.outDir, fmt.Sprintf("store-%d-traced", os.Getpid())), true)
		if err != nil {
			return nil, err
		}
		tstart := time.Now()
		traced, telapsed := td.drive(newJobGen(o.seed), o.half())
		retained := len(td.mgr.Jobs())
		diskBytes, err := td.stop()
		if err != nil {
			return nil, err
		}
		tracedLayers(out, recs, elapsed, traced, telapsed, td, retained, diskBytes)
		setRuntimeMetrics(out, counters, computedPackets(recs))
		if err := writeJobSpans(filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed)), tstart, traced); err != nil {
			return nil, err
		}
		all = append(append([]jobRecord(nil), recs...), traced...)
	} else {
		out.metrics["setup_s"] = setupS
		out.metrics["op_p50_ms"] = cls[cold].p(0.5)
		out.metrics["op_cpu_ms"] = cpuPerJob
		out.metrics["heap_peak_mib"] = heapPeak
	}
	return out, checkJobs(o, all, out)
}

// checkJobs compares every served series with the in-process harness, and
// the in-process series of the sequence's first job with its recorded
// digest (counted as one more operation).
func checkJobs(o options, recs []jobRecord, out *outcome) error {
	want, err := inProcess(recs)
	if err != nil {
		return err
	}
	out.attempted = len(recs) + 1
	out.failed = verifyJobs(recs, want)
	first := newJobGen(o.seed).take().spec
	pts := make([]measure.Point, len(first.Values))
	for i, v := range first.Values {
		pts[i] = want[first.Seed][v]
	}
	recorded, mismatch := checkGolden(o.workload, o.seed, digestPoints(pts))
	out.report["golden_checked"] = recorded
	if mismatch {
		out.failed = out.attempted
		out.report["golden_mismatch"] = true
	}
	return nil
}

// classLatencies splits successful job latencies by class.
func classLatencies(recs []jobRecord) [3]latencies {
	var cls [3]latencies
	for _, r := range recs {
		if r.err == nil {
			cls[r.job.class].add(r.latency)
		}
	}
	return cls
}

// computedPackets counts the packets the daemon simulated (store misses
// times packets per point).
func computedPackets(recs []jobRecord) int {
	n := 0
	for _, r := range recs {
		if r.status != nil {
			n += r.status.StoreMisses * r.job.spec.Packets
		}
	}
	return n
}

// tracedLayers derives the service and store per-layer metrics from the
// traced half, and the tracing overhead from the two halves.
func tracedLayers(out *outcome, recs []jobRecord, elapsed time.Duration, traced []jobRecord, telapsed time.Duration, td *daemon, retained int, diskBytes int64) {
	m := out.metrics
	cls := classLatencies(traced)
	m["service.job_warm_p50_ms"] = cls[warm].p(0.5)
	m["service.job_warm_p90_ms"] = cls[warm].p(0.9)
	var submit, first, queue, compute, server, client []float64
	var cache measure.CacheStats
	for _, r := range traced {
		if r.err != nil {
			continue
		}
		st := r.status
		submit = append(submit, ms(r.submit))
		if r.job.class == cold {
			first = append(first, ms(r.first))
		}
		// The traced clock runs 1000x, so its milliseconds are microseconds.
		queue = append(queue, float64(st.StartedMs-st.SubmittedMs)/1e3)
		compute = append(compute, float64(st.FinishedMs-st.StartedMs)/1e3)
		server = append(server, float64(st.FinishedMs-st.SubmittedMs)/1e3)
		client = append(client, ms(r.latency))
		if st.StageCache != nil {
			c := st.StageCache
			cache.Hits += c.Hits
			cache.Misses += c.Misses
			cache.Evictions += c.Evictions
			if c.PeakBytes > cache.PeakBytes {
				cache.PeakBytes = c.PeakBytes
			}
		}
	}
	m["service.submit_ms"] = mean(submit)
	m["service.first_point_ms"] = mean(first)
	m["service.queue_wait_ms"] = mean(queue)
	m["service.compute_ms"] = mean(compute)
	m["service.retained_jobs"] = float64(retained)
	m["sim.cache_hits"] = float64(cache.Hits)
	m["sim.cache_misses"] = float64(cache.Misses)
	m["sim.cache_hit_ratio"] = cache.HitRate()
	m["sim.cache_peak_bytes"] = float64(cache.PeakBytes)
	m["sim.cache_evictions"] = float64(cache.Evictions)
	// For the service the untraced "packet" is a job: coverage is the
	// share of the client-observed job time the server accounts for, and
	// the overhead is the rest (HTTP, JSON, scheduling) per job.
	if mc := mean(client); mc > 0 {
		m["trace.coverage"] = mean(server) / mc
		m["core.overhead_us"] = (mc - mean(server)) * 1e3
	}
	if len(recs) > 0 && len(traced) > 0 {
		u := elapsed.Seconds() / float64(len(recs))
		t := telapsed.Seconds() / float64(len(traced))
		m["trace.overhead_pct"] = (t - u) / u * 100
	}
	ts := td.timed
	if ts.gets > 0 {
		m["store.get_us"] = float64(ts.getT.Nanoseconds()) / 1e3 / float64(ts.gets)
	}
	if ts.puts > 0 {
		m["store.put_us"] = float64(ts.putT.Nanoseconds()) / 1e3 / float64(ts.puts)
	}
	if ts.flushes > 0 {
		m["store.flush_ms"] = ms(ts.flushT) / float64(ts.flushes)
	}
	stats := td.st.Stats()
	m["store.hit_ratio"] = stats.HitRate()
	m["store.mem_evictions"] = float64(stats.Evictions)
	m["store.disk_bytes"] = float64(diskBytes)
	out.report["traced_jobs"] = len(traced)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// writeJobSpans writes one root span per traced job with its client-side
// phases (submit, first point) and server-side phases (queue wait, compute;
// anchored at the POST, from the job's clock timestamps) as children, all
// sharing the job's id.
func writeJobSpans(path string, epoch time.Time, recs []jobRecord) error {
	tr := newTracer(epoch)
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		st := r.status
		at := r.start.Sub(epoch)
		root := tr.add("job."+r.job.class.String(), 0, at, at+r.latency)
		tr.add("service.submit", root, at, at+r.submit)
		if r.first > 0 {
			tr.add("service.first_point", root, at, at+r.first)
		}
		q := time.Duration(st.StartedMs-st.SubmittedMs) * time.Microsecond
		c := time.Duration(st.FinishedMs-st.StartedMs) * time.Microsecond
		tr.add("service.queue_wait", root, at, at+q)
		tr.add("service.compute", root, at+q, at+q+c)
	}
	return tr.write(path)
}
