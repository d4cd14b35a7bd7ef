package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"wlansim/internal/core"
	"wlansim/internal/measure"
	"wlansim/internal/service/store"
)

// newTestManager builds a manager on a fresh in-memory store.
func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.Store == nil {
		cfg.Store = store.NewMemory(0)
	}
	m := New(cfg)
	t.Cleanup(func() {
		if err := m.Drain(); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return m
}

// waitJob blocks until the job is terminal and returns its series.
func waitJob(t *testing.T, j *Job) *measure.Series {
	t.Helper()
	deadline := time.Now().Add(5 * time.Minute)
	for {
		_, state, updated := j.PointsSince(0)
		if state.Done() {
			break
		}
		select {
		case <-updated:
		case <-time.After(time.Until(deadline)):
			t.Fatalf("job %s did not finish", j.ID)
		}
	}
	st := j.Snapshot()
	if st.State == JobFailed {
		t.Fatalf("job %s failed: %s", j.ID, st.Error)
	}
	return st.Series
}

// seriesIdentical compares the served measurement data bit for bit:
// labels, point count, and every float column through Float64bits.
// Cache counters are execution detail, not measurement identity.
func seriesIdentical(t *testing.T, tag string, got, want *measure.Series) {
	t.Helper()
	if got.Label != want.Label || got.XLabel != want.XLabel || got.YLabel != want.YLabel {
		t.Errorf("%s: labels (%q,%q,%q) != (%q,%q,%q)", tag,
			got.Label, got.XLabel, got.YLabel, want.Label, want.XLabel, want.YLabel)
	}
	if len(got.Points) != len(want.Points) {
		t.Fatalf("%s: %d points, want %d", tag, len(got.Points), len(want.Points))
	}
	for i := range got.Points {
		g, w := got.Points[i], want.Points[i]
		if math.Float64bits(g.X) != math.Float64bits(w.X) ||
			math.Float64bits(g.Y) != math.Float64bits(w.Y) ||
			math.Float64bits(g.CILo) != math.Float64bits(w.CILo) ||
			math.Float64bits(g.CIHi) != math.Float64bits(w.CIHi) ||
			g.Bits != w.Bits || g.Errors != w.Errors {
			t.Errorf("%s: point %d differs:\n  got  %+v\n  want %+v", tag, i, g, w)
		}
	}
}

// TestServedSeriesByteIdentical is the service's core acceptance test: for
// every sweep kind, the series served by the job fabric must be bit-identical
// (Float64bits) to the same spec executed in-process through the core
// harnesses — cold (all points computed) and warm (all points store-served).
func TestServedSeriesByteIdentical(t *testing.T) {
	type tc struct {
		name string
		spec SweepSpec
		ref  func(spec SweepSpec) (*measure.Series, error)
	}
	cases := []tc{
		{
			name: "fig5",
			spec: SweepSpec{Kind: "fig5", Packets: 2, Points: 3},
			ref: func(spec SweepSpec) (*measure.Series, error) {
				base := core.Figure5Config()
				base.Packets = spec.Packets
				base.Workers = 1
				return core.FilterBandwidthSweep(base, spec.Values)
			},
		},
		{
			name: "fig6-adjacent",
			spec: SweepSpec{Kind: "fig6", Packets: 2, Points: 3, Adjacent: true},
			ref: func(spec SweepSpec) (*measure.Series, error) {
				base := core.Figure6Config()
				base.Packets = spec.Packets
				base.Workers = 1
				return core.CompressionPointSweep(base, spec.Values, true)
			},
		},
		{
			name: "ip3",
			spec: SweepSpec{Kind: "ip3", Packets: 2, Points: 3, Adjacent: true},
			ref: func(spec SweepSpec) (*measure.Series, error) {
				base := core.Figure6Config()
				base.Packets = spec.Packets
				base.Workers = 1
				return core.IP3Sweep(base, spec.Values, true)
			},
		},
		{
			name: "evm",
			spec: SweepSpec{Kind: "evm", Packets: 2, Values: []float64{12, 20, 31}},
			ref: func(spec SweepSpec) (*measure.Series, error) {
				base := core.DefaultConfig()
				base.Packets = spec.Packets
				base.Workers = 1
				return core.EVMvsSNR(base, spec.Values)
			},
		},
		{
			name: "snr-ideal",
			spec: SweepSpec{Kind: "snr", Packets: 2, Points: 3, From: 4, To: 12},
			ref: func(spec SweepSpec) (*measure.Series, error) {
				base := core.DefaultConfig()
				base.Packets = spec.Packets
				base.Workers = 1
				fig, err := core.WaterfallBERvsSNROnFrontEnd(base, core.FrontEndIdeal, []int{24}, spec.Values)
				if err != nil {
					return nil, err
				}
				return fig.Series[0], nil
			},
		},
		{
			// The daemon runs the behavioral points as lanes (two groups on
			// its two job workers); the reference runs groups of one.
			name: "snr-behavioral",
			spec: SweepSpec{Kind: "snr", FrontEnd: "behavioral", Packets: 2, Points: 5, From: 4, To: 12},
			ref: func(spec SweepSpec) (*measure.Series, error) {
				base := core.DefaultConfig()
				base.Packets = spec.Packets
				base.Workers = 1
				base.Batch = 1
				fig, err := core.WaterfallBERvsSNROnFrontEnd(base, core.FrontEndBehavioral, []int{24}, spec.Values)
				if err != nil {
					return nil, err
				}
				return fig.Series[0], nil
			},
		},
	}

	m := newTestManager(t, Config{Workers: 2, JobWorkers: 2})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			canon, err := c.spec.Canonicalize()
			if err != nil {
				t.Fatal(err)
			}
			want, err := c.ref(canon)
			if err != nil {
				t.Fatal(err)
			}

			cold, err := m.Submit(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			got := waitJob(t, cold)
			seriesIdentical(t, "cold", got, want)
			if st := cold.Snapshot(); st.StoreHits != 0 {
				t.Errorf("cold job had %d store hits", st.StoreHits)
			}

			// Warm: the identical spec is served entirely from the store.
			warm, err := m.Submit(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			got2 := waitJob(t, warm)
			seriesIdentical(t, "warm", got2, want)
			if st := warm.Snapshot(); st.StoreHits != len(canon.Values) {
				t.Errorf("warm job: %d store hits, want %d", st.StoreHits, len(canon.Values))
			}
		})
	}
}

// TestOverlappingSweepComputesOnlyNovelPoints pins the incremental-compute
// contract: a wider grid that shares values with an earlier job only runs the
// novel points, and the shared points are bit-identical across both jobs.
func TestOverlappingSweepComputesOnlyNovelPoints(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, JobWorkers: 1})
	first, err := m.Submit(SweepSpec{Kind: "evm", Packets: 2, Values: []float64{10, 20, 30}})
	if err != nil {
		t.Fatal(err)
	}
	s1 := waitJob(t, first)

	puts := m.cfg.Store.Stats().Puts
	second, err := m.Submit(SweepSpec{Kind: "evm", Packets: 2, Values: []float64{10, 15, 20, 25, 30}})
	if err != nil {
		t.Fatal(err)
	}
	s2 := waitJob(t, second)
	if st := second.Snapshot(); st.StoreHits != 3 {
		t.Errorf("overlapping job: %d hits, want 3", st.StoreHits)
	}
	if delta := m.cfg.Store.Stats().Puts - puts; delta != 2 {
		t.Errorf("overlapping job stored %d new points, want 2", delta)
	}
	// Shared values carry identical bits in both series.
	for i, j := range map[int]int{0: 0, 1: 2, 2: 4} {
		a, b := s1.Points[i], s2.Points[j]
		if math.Float64bits(a.Y) != math.Float64bits(b.Y) || a.Bits != b.Bits || a.Errors != b.Errors {
			t.Errorf("shared value %g differs across jobs: %+v vs %+v", a.X, a, b)
		}
	}
}

// TestCanonicalizeSpellingsShareKeys pins that a From/To/Points grid and the
// equivalent explicit Values canonicalize to the same point keys (and so
// share store entries), while validation rejects malformed specs.
func TestCanonicalizeSpellingsShareKeys(t *testing.T) {
	a, err := (SweepSpec{Kind: "evm", From: 10, To: 30, Points: 3}).Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := (SweepSpec{Kind: "evm", Values: []float64{10, 20, 30}}).Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	ka, kb := PointKeys(a), PointKeys(b)
	if len(ka) != 3 || len(kb) != 3 {
		t.Fatalf("key counts %d, %d", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Errorf("key %d differs between grid spellings: %x vs %x", i, ka[i], kb[i])
		}
	}
	if a.From != 0 || a.To != 0 || a.Points != 0 {
		t.Errorf("canonical form kept grid constructor fields: %+v", a)
	}

	bad := []SweepSpec{
		{Kind: "nope"},
		{Kind: "evm", Adjacent: true},
		{Kind: "evm", FrontEnd: "ideal"},
		{Kind: "snr", FrontEnd: "quantum"},
		{Kind: "evm", RateMbps: 17},
		{Kind: "evm", PSDULen: 5000},
		{Kind: "evm", Packets: MaxPackets + 1},
		{Kind: "evm", TargetErrors: -1},
		{Kind: "evm", Values: []float64{3, 2}},
		{Kind: "evm", Values: []float64{2, 2}},
	}
	for i, s := range bad {
		if _, err := s.Canonicalize(); err == nil {
			t.Errorf("bad spec %d (%+v) accepted", i, s)
		}
	}

	// Different seeds, dispatch-independent fields changed: keys must move.
	c, _ := (SweepSpec{Kind: "evm", Seed: 7, Values: []float64{10, 20, 30}}).Canonicalize()
	if PointKeys(c)[0] == kb[0] {
		t.Error("seed not folded into point keys")
	}
	d, _ := (SweepSpec{Kind: "evm", Packets: 3, Values: []float64{10, 20, 30}}).Canonicalize()
	if PointKeys(d)[0] == kb[0] {
		t.Error("packet count not folded into point keys")
	}
}

// TestStreamedPrefixMatchesFinalSeries consumes the NDJSON stream endpoint
// and requires the streamed points, in order, to be exactly the final series.
func TestStreamedPrefixMatchesFinalSeries(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, JobWorkers: 2})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	spec := SweepSpec{Kind: "evm", Packets: 2, Values: []float64{10, 15, 20, 25, 30}}
	body, _ := json.Marshal(spec)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}

	sresp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var streamed []measure.Point
	var final *JobStatus
	sc := bufio.NewScanner(sresp.Body)
	for sc.Scan() {
		var line struct {
			Index  int            `json:"index"`
			Point  *measure.Point `json:"point"`
			Status *JobStatus     `json:"status"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Point != nil:
			if line.Index != len(streamed) {
				t.Fatalf("stream index %d, want %d", line.Index, len(streamed))
			}
			streamed = append(streamed, *line.Point)
		case line.Status != nil:
			final = line.Status
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if final == nil || final.State != JobDone || final.Series == nil {
		t.Fatalf("stream ended without a done status: %+v", final)
	}
	if len(streamed) != len(final.Series.Points) {
		t.Fatalf("streamed %d points, series has %d", len(streamed), len(final.Series.Points))
	}
	for i := range streamed {
		g, w := streamed[i], final.Series.Points[i]
		if math.Float64bits(g.X) != math.Float64bits(w.X) || math.Float64bits(g.Y) != math.Float64bits(w.Y) ||
			math.Float64bits(g.CILo) != math.Float64bits(w.CILo) || math.Float64bits(g.CIHi) != math.Float64bits(w.CIHi) ||
			g.Bits != w.Bits || g.Errors != w.Errors {
			t.Errorf("streamed point %d differs from final series: %+v vs %+v", i, g, w)
		}
	}
}

// TestBackpressure429 fills the bounded queue behind a blocked executor and
// requires submissions beyond it to fail fast with 429 + Retry-After.
func TestBackpressure429(t *testing.T) {
	block := make(chan struct{})
	m := New(Config{Store: store.NewMemory(0), Workers: 1, QueueDepth: 2})
	m.execute = func(j *Job) {
		<-block
		m.finish(j, &measure.Series{}, nil)
	}
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	defer m.Drain()
	defer close(block)

	spec, _ := json.Marshal(SweepSpec{Kind: "evm", Packets: 1, Values: []float64{10}})
	submit := func() *http.Response {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp
	}
	// 1 running + 2 queued fit; the queue may briefly hold the running
	// job too, so allow one extra accept before demanding refusals.
	accepted := 0
	var got429 *http.Response
	for i := 0; i < 6; i++ {
		resp := submit()
		if resp.StatusCode == http.StatusAccepted {
			accepted++
			continue
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("submission %d: HTTP %d", i, resp.StatusCode)
		}
		got429 = resp
		break
	}
	if got429 == nil {
		t.Fatal("queue never refused a submission")
	}
	if accepted < 3 {
		t.Errorf("only %d submissions accepted before refusal, want >= 3", accepted)
	}
	if got429.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

// TestSubmitBodyLimit pins the POST /v1/jobs body bound: a spec padded to
// one byte under MaxSpecBytes is accepted, and a body one byte over it is
// refused with 413 and a JSON error before any job is queued.
func TestSubmitBodyLimit(t *testing.T) {
	m := New(Config{Store: store.NewMemory(0), Workers: 1})
	m.execute = func(j *Job) { m.finish(j, &measure.Series{}, nil) }
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	defer m.Drain()

	spec, _ := json.Marshal(SweepSpec{Kind: "evm", Packets: 1, Values: []float64{10}})
	// Leading whitespace pads the body without changing the spec.
	padded := func(size int) []byte {
		return append(bytes.Repeat([]byte(" "), size-len(spec)), spec...)
	}
	post := func(body []byte) (*http.Response, errorBody) {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e errorBody
		if resp.StatusCode != http.StatusAccepted {
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatalf("HTTP %d without a JSON error body: %v", resp.StatusCode, err)
			}
		}
		return resp, e
	}

	if resp, e := post(padded(MaxSpecBytes - 1)); resp.StatusCode != http.StatusAccepted {
		t.Errorf("body one byte under the limit: HTTP %d (%s), want 202", resp.StatusCode, e.Error)
	}
	resp, e := post(padded(MaxSpecBytes + 1))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("body one byte over the limit: HTTP %d, want 413", resp.StatusCode)
	}
	if e.Error == "" {
		t.Error("413 without an error message")
	}
	if n := len(m.Jobs()); n != 1 {
		t.Errorf("%d jobs queued, want only the one under the limit", n)
	}

	// The largest valid grid, at full float64 precision, fits the bound.
	widest := SweepSpec{Kind: "fig6", Values: make([]float64, MaxPoints)}
	for i := range widest.Values {
		widest.Values[i] = -1.2345678901234567e-300 * float64(i+1) / 3
	}
	if body, _ := json.Marshal(widest); len(body) >= MaxSpecBytes {
		t.Errorf("a %d-point spec takes %d bytes, over the %d-byte bound", MaxPoints, len(body), MaxSpecBytes)
	}
}

// TestSubmitTrailingData pins that POST /v1/jobs takes exactly one spec: a
// second JSON value or other non-whitespace after the spec is a 400 and
// queues nothing, while trailing whitespace is accepted.
func TestSubmitTrailingData(t *testing.T) {
	m := New(Config{Store: store.NewMemory(0), Workers: 1})
	m.execute = func(j *Job) { m.finish(j, &measure.Series{}, nil) }
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	defer m.Drain()

	spec := `{"kind":"fig6","packets":1,"values":[-20]}`
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"second value", spec + `{"kind":"bogus"}`, http.StatusBadRequest},
		{"trailing garbage", spec + ` trailing-garbage`, http.StatusBadRequest},
		{"stray closing brace", spec + `}`, http.StatusBadRequest},
		{"trailing whitespace", spec + " \n\t", http.StatusAccepted},
	} {
		before := len(m.Jobs())
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		var e errorBody
		if resp.StatusCode != http.StatusAccepted {
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Errorf("%s: HTTP %d without a JSON error body: %v", tc.name, resp.StatusCode, err)
			}
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: HTTP %d (%s), want %d", tc.name, resp.StatusCode, e.Error, tc.want)
		}
		wantQueued := 0
		if tc.want == http.StatusAccepted {
			wantQueued = 1
		}
		if queued := len(m.Jobs()) - before; queued != wantQueued {
			t.Errorf("%s: %d jobs queued, want %d", tc.name, queued, wantQueued)
		}
	}
}

// TestDrainFinishesAcceptedJobs pins the graceful-shutdown contract: Drain
// completes every accepted job, flushes the store, and later submissions
// are refused with ErrClosed (503 over HTTP).
func TestDrainFinishesAcceptedJobs(t *testing.T) {
	m := New(Config{Store: store.NewMemory(0), Workers: 2, JobWorkers: 1})
	var jobs []*Job
	for i := 0; i < 5; i++ {
		j, err := m.Submit(SweepSpec{Kind: "evm", Packets: 1, Values: []float64{10, 20}})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if st := j.Snapshot(); st.State != JobDone {
			t.Errorf("job %s state %q after drain", j.ID, st.State)
		}
	}
	if _, err := m.Submit(SweepSpec{Kind: "evm", Values: []float64{1}}); err != ErrClosed {
		t.Errorf("submit after drain: %v, want ErrClosed", err)
	}

	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	spec, _ := json.Marshal(SweepSpec{Kind: "evm", Values: []float64{1}})
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit after drain: HTTP %d, want 503", resp.StatusCode)
	}
}

// TestConcurrentClients is the load test: 8 clients hammer one daemon with
// a mix of identical, overlapping and distinct specs; every response must be
// bit-identical to the in-process reference for its spec, and the store must
// have computed each distinct point exactly once.
func TestConcurrentClients(t *testing.T) {
	m := newTestManager(t, Config{Workers: 4, QueueDepth: 64, JobWorkers: 1})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	// Three spec shapes over one value universe: identical resubmissions,
	// an overlapping subset, and a distinct seed (disjoint store keys).
	specs := []SweepSpec{
		{Kind: "evm", Packets: 2, Values: []float64{10, 15, 20, 25, 30}},
		{Kind: "evm", Packets: 2, Values: []float64{15, 25}},
		{Kind: "evm", Packets: 2, Seed: 9, Values: []float64{10, 20, 30}},
	}
	// In-process references, computed once, sequentially.
	refs := make([]*measure.Series, len(specs))
	for i, s := range specs {
		canon, err := s.Canonicalize()
		if err != nil {
			t.Fatal(err)
		}
		base := core.DefaultConfig()
		base.Packets = canon.Packets
		base.Seed = canon.Seed
		base.Workers = 1
		ref, err := core.EVMvsSNR(base, canon.Values)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}

	const clients = 8
	const perClient = 3
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				si := (c + r) % len(specs)
				body, _ := json.Marshal(specs[si])
				var st JobStatus
				// Submissions retry on backpressure: a 429 is expected
				// behavior under this load, not a failure.
				for {
					resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
					if err != nil {
						errs <- err
						return
					}
					if resp.StatusCode == http.StatusTooManyRequests {
						resp.Body.Close()
						continue
					}
					if resp.StatusCode != http.StatusAccepted {
						resp.Body.Close()
						errs <- fmt.Errorf("client %d: submit HTTP %d", c, resp.StatusCode)
						return
					}
					err = json.NewDecoder(resp.Body).Decode(&st)
					resp.Body.Close()
					if err != nil {
						errs <- err
						return
					}
					break
				}
				wresp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "?wait=1")
				if err != nil {
					errs <- err
					return
				}
				err = json.NewDecoder(wresp.Body).Decode(&st)
				wresp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if st.State != JobDone || st.Series == nil {
					errs <- fmt.Errorf("client %d: job %s state %q", c, st.ID, st.State)
					return
				}
				want := refs[si]
				if len(st.Series.Points) != len(want.Points) {
					errs <- fmt.Errorf("client %d spec %d: %d points, want %d", c, si, len(st.Series.Points), len(want.Points))
					return
				}
				for i := range want.Points {
					g, w := st.Series.Points[i], want.Points[i]
					if math.Float64bits(g.X) != math.Float64bits(w.X) ||
						math.Float64bits(g.Y) != math.Float64bits(w.Y) ||
						math.Float64bits(g.CILo) != math.Float64bits(w.CILo) ||
						math.Float64bits(g.CIHi) != math.Float64bits(w.CIHi) ||
						g.Bits != w.Bits || g.Errors != w.Errors {
						errs <- fmt.Errorf("client %d spec %d point %d: served %+v != in-process %+v", c, si, i, g, w)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Distinct points across all specs: 5 (seed 1 universe) + 3 (seed 9).
	// Every one was computed and stored exactly once, no matter how many
	// jobs raced over it... unless two jobs raced on the same cold point,
	// which the store absorbs (same key => identical payload). So Puts may
	// exceed the distinct count only through benign duplicate writes of
	// identical bytes; entries must be exact.
	if st := m.cfg.Store.Stats(); st.Entries != 8 {
		t.Errorf("store holds %d distinct points, want 8 (stats %+v)", st.Entries, st)
	}
}
