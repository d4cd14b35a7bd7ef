package service

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"wlansim/internal/kernels"
	"wlansim/internal/measure"
	"wlansim/internal/service/store"
)

// Clock supplies monotonic elapsed time since an arbitrary epoch (daemon
// start). It is injected — never read ambiently via time.Now — so job
// scheduling inside the service is a pure function of its inputs and the
// detflow analyzer can hold the package to the same determinism contract as
// the simulation packages. The daemon wires a real monotonic clock in
// cmd/wlansimd; tests pass a fake.
type Clock func() time.Duration

// Config sizes a Manager. Store is the only required field.
type Config struct {
	// Store persists finished points across jobs (and, with a disk-backed
	// store, across daemon lifetimes).
	Store store.Store
	// Workers is the number of jobs executed concurrently (default 2).
	Workers int
	// QueueDepth bounds the accepted-but-unstarted job queue; submissions
	// beyond it are refused with a BusyError (default 16).
	QueueDepth int
	// JobWorkers is the sweep-executor worker count inside one job
	// (sim.Sweep.Workers; default 0 = all CPUs).
	JobWorkers int
	// Clock is the injected monotonic clock (default: a frozen zero clock,
	// which only costs the job timestamps their meaning).
	Clock Clock
}

// JobState is the lifecycle of a job.
type JobState string

// Job lifecycle states.
const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// BusyError is returned by Submit when the job queue is full; RetryAfter
// is the client back-off hint in seconds (HTTP 429 + Retry-After).
type BusyError struct{ RetryAfter int }

func (e *BusyError) Error() string {
	return fmt.Sprintf("service: job queue full, retry after %ds", e.RetryAfter)
}

// ErrClosed is returned by Submit after Drain has begun.
var ErrClosed = errors.New("service: manager draining")

// Job is one accepted sweep spec moving through the fabric. All mutable
// state is guarded by mu; Snapshot returns a consistent copy for encoding.
type Job struct {
	// ID is the manager-assigned identifier ("j1", "j2", ...).
	ID string
	// Spec is the canonical spec (defaults filled, grid materialized).
	Spec SweepSpec

	mu      sync.Mutex
	updated chan struct{} // closed and replaced on every state change
	state   JobState
	// points is the completed prefix, in Values order, with the kind's
	// figure-axis transform applied — exactly the prefix of the final
	// series. Streaming clients read it through PointsSince.
	points []measure.Point
	next   int // index into Spec.Values of the first unfinished value
	series *measure.Series
	err    error
	hits   int // store hits at job start
	cache  measure.CacheStats
	// Timestamps from the injected monotonic clock.
	submittedAt, startedAt, finishedAt time.Duration
}

// JobStatus is the encodable snapshot of a job.
type JobStatus struct {
	ID          string              `json:"id"`
	State       JobState            `json:"state"`
	Spec        SweepSpec           `json:"spec"`
	TotalPoints int                 `json:"total_points"`
	DonePoints  int                 `json:"done_points"`
	StoreHits   int                 `json:"store_hits"`
	StoreMisses int                 `json:"store_misses"`
	Error       string              `json:"error,omitempty"`
	StageCache  *measure.CacheStats `json:"stage_cache,omitempty"`
	Series      *measure.Series     `json:"series,omitempty"`
	SubmittedMs int64               `json:"submitted_ms"`
	StartedMs   int64               `json:"started_ms,omitempty"`
	FinishedMs  int64               `json:"finished_ms,omitempty"`
}

// Snapshot returns a consistent copy of the job for encoding. The series
// pointer is only set once the job is done and is immutable from then on.
func (j *Job) Snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.ID,
		State:       j.state,
		Spec:        j.Spec,
		TotalPoints: len(j.Spec.Values),
		DonePoints:  len(j.points),
		StoreHits:   j.hits,
		StoreMisses: len(j.Spec.Values) - j.hits,
		Series:      j.series,
		SubmittedMs: j.submittedAt.Milliseconds(),
		StartedMs:   j.startedAt.Milliseconds(),
		FinishedMs:  j.finishedAt.Milliseconds(),
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.cache.Enabled {
		c := j.cache
		st.StageCache = &c
	}
	return st
}

// Done reports whether the job reached a terminal state.
func (s JobState) Done() bool { return s == JobDone || s == JobFailed }

// PointsSince returns the completed-prefix points from index from on, the
// job's state, and a channel that is closed on the next state change —
// the streaming handler's wait primitive.
func (j *Job) PointsSince(from int) ([]measure.Point, JobState, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var pts []measure.Point
	if from < len(j.points) {
		pts = append(pts, j.points[from:]...)
	}
	return pts, j.state, j.updated
}

// broadcastLocked wakes every waiter; the caller holds j.mu.
func (j *Job) broadcastLocked() {
	close(j.updated)
	j.updated = make(chan struct{})
}

// Manager owns the job queue, the worker pool and the result store.
type Manager struct {
	cfg   Config
	queue chan *Job
	wg    sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	seq    int
	closed bool

	// execute runs one job; a test seam (defaults to executeJob).
	execute func(*Job)
}

// New starts a manager with cfg.Workers job executors.
func New(cfg Config) *Manager {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.Clock == nil {
		cfg.Clock = func() time.Duration { return 0 }
	}
	m := &Manager{
		cfg:   cfg,
		queue: make(chan *Job, cfg.QueueDepth),
		jobs:  make(map[string]*Job),
	}
	m.execute = m.executeJob
	for w := 0; w < cfg.Workers; w++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Submit validates, canonicalizes and enqueues a spec. It never blocks: a
// full queue returns a BusyError carrying the back-off hint.
func (m *Manager) Submit(spec SweepSpec) (*Job, error) {
	canon, err := spec.Canonicalize()
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	m.seq++
	job := &Job{
		ID:          fmt.Sprintf("j%d", m.seq),
		Spec:        canon,
		updated:     make(chan struct{}),
		state:       JobQueued,
		submittedAt: m.cfg.Clock(),
	}
	select {
	case m.queue <- job:
		m.jobs[job.ID] = job
		m.order = append(m.order, job.ID)
		m.mu.Unlock()
		return job, nil
	default:
		m.seq-- // the job was never admitted
		queued := len(m.queue)
		m.mu.Unlock()
		// Back-off hint: one second per queued job ahead of the caller,
		// floored at one — a coarse, monotone estimate that needs no
		// wall-clock read.
		return nil, &BusyError{RetryAfter: 1 + queued/2}
	}
}

// Job returns a submitted job by ID.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns all jobs in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// Drain stops accepting submissions, finishes every accepted job, flushes
// the store and returns. Safe to call once (the daemon's SIGTERM path).
func (m *Manager) Drain() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	close(m.queue)
	m.wg.Wait()
	return m.cfg.Store.Flush()
}

// worker executes queued jobs until the queue is closed and drained.
func (m *Manager) worker() {
	defer m.wg.Done()
	for job := range m.queue {
		job.mu.Lock()
		job.state = JobRunning
		job.startedAt = m.cfg.Clock()
		job.broadcastLocked()
		job.mu.Unlock()
		m.execute(job)
	}
}

// finish moves the job to its terminal state.
func (m *Manager) finish(job *Job, series *measure.Series, err error) {
	job.mu.Lock()
	defer job.mu.Unlock()
	job.finishedAt = m.cfg.Clock()
	if err != nil {
		job.state = JobFailed
		job.err = err
	} else {
		job.state = JobDone
		job.series = series
	}
	job.broadcastLocked()
}

// executeJob serves a job: stored points come from the content-addressed
// store, novel points run as one sim.Sweep over the novel values only (so
// they still share the invariant-prefix stage cache and run as lanes), and
// the merged series is bit-identical to running the full spec in-process —
// each point's realization depends only on (seed root, value), never on
// which grid-mates it ran with.
func (m *Manager) executeJob(job *Job) {
	spec := job.Spec
	keys := PointKeys(spec)
	n := len(spec.Values)
	stored := make([]measure.Point, n)
	fresh := make([]measure.Point, n)
	have := make([]byte, n) // 0 = pending, 1 = stored, 2 = fresh
	var novel []float64
	var novelPos []int
	hits := 0
	for i, v := range spec.Values {
		if p, ok := m.cfg.Store.Get(keys[i]); ok {
			stored[i] = p
			have[i] = 1
			hits++
		} else {
			novel = append(novel, v)
			novelPos = append(novelPos, i)
		}
	}

	// advance emits the contiguous completed prefix; the caller holds
	// job.mu. Points enter in Values order, exactly the final series order.
	advance := func() {
		for job.next < n {
			switch have[job.next] {
			case 1:
				job.points = append(job.points, stored[job.next])
			case 2:
				job.points = append(job.points, fresh[job.next])
			default:
				return
			}
			job.next++
		}
	}

	job.mu.Lock()
	job.hits = hits
	advance()
	job.broadcastLocked()
	job.mu.Unlock()

	var freshSeries *measure.Series
	if len(novel) > 0 {
		fIdx := 0
		rp := runParams{
			workers: m.cfg.JobWorkers,
			// Invoked from the sweep collector in novel-values order for
			// each completed prefix; the index walk maps it back to the
			// job's grid position.
			onPoint: func(p measure.Point) {
				p.X = spec.PostX(p.X)
				job.mu.Lock()
				pos := novelPos[fIdx]
				fIdx++
				fresh[pos] = p
				have[pos] = 2
				advance()
				job.broadcastLocked()
				job.mu.Unlock()
			},
		}
		s, err := kinds[spec.Kind].run(spec, novel, rp)
		if err != nil {
			m.finish(job, nil, err)
			return
		}
		if len(s.Points) != len(novel) {
			m.finish(job, nil, fmt.Errorf("service: sweep returned %d points for %d novel values", len(s.Points), len(novel)))
			return
		}
		freshSeries = s
		for k, pos := range novelPos {
			// s.Points is X-sorted; the novel values are strictly
			// increasing and PostX is monotone, so position k is value k.
			if err := m.cfg.Store.Put(keys[pos], s.Points[k]); err != nil {
				m.finish(job, nil, err)
				return
			}
		}
	}

	name, xl, yl := spec.Labels()
	final := &measure.Series{Label: name, XLabel: xl, YLabel: yl, Points: make([]measure.Point, 0, n)}
	for i := 0; i < n; i++ {
		switch have[i] {
		case 1:
			final.Points = append(final.Points, stored[i])
		case 2:
			final.Points = append(final.Points, fresh[i])
		}
	}
	if freshSeries != nil {
		final.Cache = freshSeries.Cache
		job.mu.Lock()
		job.cache = freshSeries.Cache
		job.mu.Unlock()
	}
	m.finish(job, final, nil)
}

// StatsSnapshot is the encodable service-level counters document (the
// /v1/stats and expvar payload).
type StatsSnapshot struct {
	Jobs        map[JobState]int `json:"jobs"`
	QueueLen    int              `json:"queue_len"`
	QueueCap    int              `json:"queue_cap"`
	Workers     int              `json:"workers"`
	Store       store.Stats      `json:"store"`
	CodeVersion string           `json:"code_version"`
	Dispatch    string           `json:"dispatch"`
}

// Stats returns the current service counters.
func (m *Manager) Stats() StatsSnapshot {
	m.mu.Lock()
	counts := make(map[JobState]int, 4)
	for _, id := range m.order {
		j := m.jobs[id]
		j.mu.Lock()
		counts[j.state]++
		j.mu.Unlock()
	}
	queueLen := len(m.queue)
	m.mu.Unlock()
	return StatsSnapshot{
		Jobs:        counts,
		QueueLen:    queueLen,
		QueueCap:    m.cfg.QueueDepth,
		Workers:     m.cfg.Workers,
		Store:       m.cfg.Store.Stats(),
		CodeVersion: CodeVersion,
		Dispatch:    kernels.DispatchName(),
	}
}
