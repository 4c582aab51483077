// Package server is the vmserved daemon's core: an HTTP API over a
// bounded point queue with explicit backpressure, a worker pool that
// funnels every point through the content-addressed result cache and
// the fault-tolerant sweep driver (so per-point deadlines, bounded
// retry, and panic quarantine carry over unchanged), per-job progress
// bookkeeping that answers a waiting client when its job is done, and
// graceful drain.
//
// Protocol (JSON over HTTP, api.Version):
//
//	POST /v1/traces        upload a binary trace; responds {sha256, refs}
//	GET  /v1/traces/{sha}  existence check (404 = upload first)
//	POST /v1/jobs          submit {api_version, trace_sha256, configs[]}
//	GET  /v1/jobs/{id}     job status; results present once state=done
//	GET  /v1/jobs/{id}?wait=D
//	                       the same, held until the job is done, D (a Go
//	                       duration such as 15s) elapses, the client goes
//	                       away, or the server starts draining
//	GET  /v1/healthz       liveness + engine identity (alias /healthz)
//	GET  /v1/readyz        readiness: 200 when accepting work, 503 when
//	                       draining or the queue is saturated (alias /readyz)
//	GET  /debug/vars       expvar (queue depth, in-flight, cache stats)
//	GET  /debug/pprof/     live profiles
//
// Backpressure is explicit: a submission that does not fit the queue
// bound is refused with 429 and a Retry-After hint rather than
// buffered without limit; a draining server refuses with 503.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"context"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/rescache"
	"repro/internal/sim"
	"repro/internal/simerr"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/version"
)

// Config parameterizes a Server. The zero value is usable: GOMAXPROCS
// workers, a 1024-point queue, 8 resident traces, no cache, no
// per-point deadline.
type Config struct {
	// Workers is the point-simulation worker count (<= 0 selects
	// GOMAXPROCS).
	Workers int
	// QueueBound is the maximum number of queued (accepted but not yet
	// running) points; a submission that would exceed it is refused
	// with 429 + Retry-After (<= 0 selects 1024). It is also the
	// largest accepted single job.
	QueueBound int
	// MaxTraces bounds the in-memory trace store; the least recently
	// used trace is evicted when a new upload exceeds it (<= 0 selects
	// 8). Jobs hold their own reference, so eviction never interrupts
	// a running campaign.
	MaxTraces int
	// Cache, when non-nil, memoizes every successful point by content
	// address and deduplicates concurrent identical points.
	Cache *rescache.Cache
	// MaxTraceBytes bounds one trace upload's body (<= 0 selects
	// DefaultMaxTraceBytes). Requests beyond it are refused mid-read
	// rather than buffered.
	MaxTraceBytes int64
	// MaxStreams bounds the concurrent POST /v1/stream connections; a
	// stream beyond it is refused with 429 + Retry-After (<= 0 selects
	// the worker count). Each stream costs one goroutine and two
	// block-sized decode buffers, so the bound is the streaming side's
	// whole memory story.
	MaxStreams int

	// PointTimeout, Retries, and Backoff are handed to the sweep driver
	// for every point, with the same semantics as a local campaign.
	PointTimeout time.Duration
	Retries      int
	Backoff      time.Duration

	// Campaign, when non-nil, turns the daemon into a coordinator
	// front-door: whole jobs are executed through this runner (in
	// practice internal/coord fanning the points out across a worker
	// fleet) instead of the local worker pool. done must be called
	// exactly once per point, concurrently is fine.
	Campaign func(ctx context.Context, tr *trace.Trace, cfgs []sim.Config, done func(index int, p sweep.Point)) error
}

// DefaultMaxTraceBytes bounds one trace upload when Config does not (a
// million-reference trace serializes to ~18MB; this leaves an order of
// magnitude of headroom).
const DefaultMaxTraceBytes = 512 << 20

// maxJobsRetained bounds the completed-job history kept for polling;
// the oldest finished jobs are forgotten first.
const maxJobsRetained = 256

// task is one queued point.
type task struct {
	j   *job
	idx int
}

// Server is the daemon core. Construct with New, expose Handler over
// HTTP (see obs.StartHTTP), stop with Shutdown.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	tasks  chan task
	traces *traceStore

	baseCtx  context.Context
	cancel   context.CancelFunc
	draining chan struct{} // closed by Shutdown: answers held ?wait= requests

	mu      sync.Mutex
	closed  bool
	seq     int
	jobs    map[string]*job
	streams int // live POST /v1/stream connections (admission-bounded)

	wg sync.WaitGroup

	queued       obs.Gauge // points accepted but not yet picked up
	inflight     obs.Gauge // points being simulated (or cache-resolved)
	jobsTotal    obs.Counter
	simulated    obs.Counter // points actually simulated (cache misses)
	streamsTotal obs.Counter // streams admitted over the server's lifetime
	streamRefs   obs.Counter // references ingested over all streams
	streamBytes  obs.Counter // stream body bytes consumed over all streams
}

// New builds a Server and starts its worker pool. The caller owns the
// HTTP listener (Handler) and the lifecycle (Shutdown).
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueBound <= 0 {
		cfg.QueueBound = 1024
	}
	if cfg.MaxTraces <= 0 {
		cfg.MaxTraces = 8
	}
	if cfg.MaxTraceBytes <= 0 {
		cfg.MaxTraceBytes = DefaultMaxTraceBytes
	}
	if cfg.MaxStreams <= 0 {
		cfg.MaxStreams = cfg.Workers
	}
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		tasks:    make(chan task, cfg.QueueBound),
		traces:   newTraceStore(cfg.MaxTraces),
		jobs:     map[string]*job{},
		draining: make(chan struct{}),
	}
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	s.mux.HandleFunc("POST /v1/traces", s.handleTraceUpload)
	s.mux.HandleFunc("GET /v1/traces/{sha}", s.handleTraceGet)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("POST /v1/stream", s.handleStream)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/readyz", s.handleReady)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	// The debug surface: net/http/pprof and expvar register on the
	// default mux (via internal/obs's imports), including the metrics
	// published below.
	s.mux.Handle("/debug/", http.DefaultServeMux)
	obs.Publish("vmserved", func() any { return s.metrics() })
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the server: new submissions are refused with 503,
// held ?wait= requests are answered at once, queued and in-flight
// points run to completion, and Shutdown returns once the workers are
// idle. If ctx expires first, in-flight simulations are cancelled
// cooperatively (their points finish with cancellation errors) and
// Shutdown returns ctx's error after the pool exits.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.closed
	if !already {
		s.closed = true
		close(s.tasks)
		close(s.draining)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancel()
		<-done
		return ctx.Err()
	}
}

// metrics is the expvar snapshot: queue depth, in-flight points, job
// and simulation counts, and the cache's hit-rate counters.
func (s *Server) metrics() map[string]any {
	s.mu.Lock()
	jobs := len(s.jobs)
	streams := s.streams
	s.mu.Unlock()
	m := map[string]any{
		"engine":           version.Engine(),
		"queue_depth":      s.queued.Load(),
		"queue_bound":      s.cfg.QueueBound,
		"inflight":         s.inflight.Load(),
		"workers":          s.cfg.Workers,
		"jobs_retained":    jobs,
		"jobs_submitted":   s.jobsTotal.Load(),
		"points_simulated": s.simulated.Load(),
		"traces_resident":  s.traces.len(),
		"active_streams":   streams,
		"stream_bound":     s.cfg.MaxStreams,
		"streams_total":    s.streamsTotal.Load(),
		"stream_refs":      s.streamRefs.Load(),
		"stream_bytes":     s.streamBytes.Load(),
	}
	if s.cfg.Cache != nil {
		m["cache"] = s.cfg.Cache.Stats()
	}
	return m
}

// --- HTTP handlers ----------------------------------------------------

// writeJSON emits one JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone = nothing to do
}

// writeError emits the error envelope.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, api.Error{Message: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, api.Health{Status: "ok", Engine: version.Engine()})
}

// handleReady answers readiness, which liveness does not imply: a
// draining daemon and one whose point queue has no admission headroom
// both report unready with 503, so fleet clients fail over instead of
// submitting into a guaranteed 429/503.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.closed
	streams := s.streams
	s.mu.Unlock()
	depth := int(s.queued.Load())
	rd := api.Ready{
		Status:        "ready",
		Engine:        version.Engine(),
		QueueDepth:    depth,
		QueueBound:    s.cfg.QueueBound,
		ActiveStreams: streams,
		StreamBound:   s.cfg.MaxStreams,
		Draining:      draining,
	}
	status := http.StatusOK
	if draining || depth >= s.cfg.QueueBound || streams >= s.cfg.MaxStreams {
		rd.Status = "unready"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, rd)
}

func (s *Server) handleTraceUpload(w http.ResponseWriter, r *http.Request) {
	// Clients may POST any trace format the CLIs read — classic binary,
	// .vmtrc blocks, or Dinero text; the magic bytes decide.
	tr, err := trace.ReadAny(http.MaxBytesReader(w, r.Body, s.cfg.MaxTraceBytes), "upload")
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading trace: %v", err)
		return
	}
	sha := trace.SHA256(tr)
	s.traces.put(sha, tr)
	writeJSON(w, http.StatusOK, api.TraceUploaded{SHA256: sha, Refs: tr.Len()})
}

func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	sha := r.PathValue("sha")
	tr := s.traces.get(sha)
	if tr == nil {
		writeError(w, http.StatusNotFound, "unknown trace %s: upload it via POST /v1/traces", sha)
		return
	}
	writeJSON(w, http.StatusOK, api.TraceUploaded{SHA256: sha, Refs: tr.Len()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req api.SubmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if req.APIVersion != api.Version {
		writeError(w, http.StatusBadRequest, "api_version %d not supported (server speaks %d)", req.APIVersion, api.Version)
		return
	}
	n := len(req.Configs)
	if n == 0 {
		writeError(w, http.StatusBadRequest, "no configurations submitted")
		return
	}
	if n > s.cfg.QueueBound {
		writeError(w, http.StatusRequestEntityTooLarge,
			"job of %d points exceeds the server's %d-point queue; split the campaign", n, s.cfg.QueueBound)
		return
	}
	tr := s.traces.get(req.TraceSHA256)
	if tr == nil {
		writeError(w, http.StatusNotFound, "unknown trace %s: upload it via POST /v1/traces", req.TraceSHA256)
		return
	}
	// Validate up front so a malformed configuration is the
	// submitter's 400, not a quarantined point error.
	for i := range req.Configs {
		if err := req.Configs[i].Validate(); err != nil {
			writeError(w, http.StatusBadRequest, "config %d: %v", i, err)
			return
		}
	}

	j := &job{
		traceSHA: req.TraceSHA256,
		tr:       tr,
		cfgs:     req.Configs,
		results:  make([]api.PointResult, n),
		changed:  make(chan struct{}),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	// Explicit backpressure: admission is all-or-nothing against the
	// queue bound. The queued gauge only shrinks as workers pick points
	// up, so a flooded server answers 429 immediately instead of
	// accumulating unbounded state.
	queued := s.queued.Load()
	if queued+int64(n) > int64(s.cfg.QueueBound) {
		s.mu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds(queued)))
		writeError(w, http.StatusTooManyRequests,
			"queue full: %d of %d points queued, %d more requested", queued, s.cfg.QueueBound, n)
		return
	}
	s.queued.Add(int64(n))
	s.seq++
	j.id = fmt.Sprintf("job-%d", s.seq)
	j.seq = s.seq
	s.jobs[j.id] = j
	s.pruneJobsLocked()
	if s.cfg.Campaign != nil {
		// Coordinator front-door: the whole job runs as one campaign
		// across the worker fleet instead of the local point queue. The
		// goroutine joins the worker pool's WaitGroup so Shutdown drains
		// in-flight campaigns exactly like in-flight points.
		s.wg.Add(1)
		go s.runCampaign(j)
	} else {
		// Capacity was reserved above and the channel holds QueueBound
		// slots, so these sends cannot block.
		for i := 0; i < n; i++ {
			s.tasks <- task{j: j, idx: i}
		}
	}
	s.mu.Unlock()
	s.jobsTotal.Inc()
	writeJSON(w, http.StatusAccepted, api.SubmitResponse{JobID: j.id, Points: n, Engine: version.Engine()})
}

// retryAfterSeconds estimates when queue capacity is likely to free
// up: the queue's depth divided by the worker pool, floored at one
// second and capped at thirty — a hint, not a promise.
func (s *Server) retryAfterSeconds(queued int64) int {
	est := int(queued) / (s.cfg.Workers * 4)
	if est < 1 {
		est = 1
	}
	if est > 30 {
		est = 30
	}
	return est
}

// handleJobStatus answers a job's status. ?wait=D makes it a bounded
// long poll; the caller picks D from its own request timeout, so the
// server has no setting for it.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var wait time.Duration
	if q := r.URL.Query(); q.Has("wait") {
		var err error
		if wait, err = time.ParseDuration(q.Get("wait")); err != nil || wait < 0 {
			writeError(w, http.StatusBadRequest, "wait=%q: want a non-negative duration such as 15s", q.Get("wait"))
			return
		}
	}
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %s", id)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()
	j.await(ctx, s.draining)
	writeJSON(w, http.StatusOK, j.status())
}

// pruneJobsLocked forgets the oldest finished jobs beyond the retention
// bound. Unfinished jobs are never pruned. Caller holds s.mu.
func (s *Server) pruneJobsLocked() {
	for len(s.jobs) > maxJobsRetained {
		victimID := ""
		victimSeq := s.seq + 1
		for id, j := range s.jobs {
			if j.finished() && j.seq < victimSeq {
				victimID, victimSeq = id, j.seq
			}
		}
		if victimID == "" {
			return // everything still running; retention resumes later
		}
		delete(s.jobs, victimID)
	}
}

// --- worker pool ------------------------------------------------------

func (s *Server) worker() {
	defer s.wg.Done()
	for t := range s.tasks {
		s.queued.Add(-1)
		s.inflight.Add(1)
		s.runPoint(t.j, t.idx)
		s.inflight.Add(-1)
	}
}

// runPoint resolves one point: through the cache (and its singleflight
// collapse of concurrent identical requests) when one is configured,
// otherwise by simulating directly. Simulation reuses the
// fault-tolerant sweep driver for a single-point campaign, so the
// server inherits per-point deadlines, bounded retry with backoff, and
// panic quarantine exactly as a local vmsweep would apply them.
func (s *Server) runPoint(j *job, idx int) {
	cfg := j.cfgs[idx]
	run := func() ([]byte, error) {
		var pt sweep.Point
		var hooked bool
		pts, _ := sweep.RunWithOptions(s.baseCtx, j.tr, []sim.Config{cfg}, sweep.Options{ // no journal: the only campaign-level errors are journal errors
			Workers:      1,
			PointTimeout: s.cfg.PointTimeout,
			Retries:      s.cfg.Retries,
			Backoff:      s.cfg.Backoff,
			// The driver's per-point completion hook is the server's
			// progress source: the point lands here exactly once,
			// whether simulated, retried, or quarantined.
			PointDone: func(_ int, p sweep.Point) { pt, hooked = p, true },
		})
		if !hooked && len(pts) == 1 {
			// A campaign cancelled before dispatch quarantines the point
			// in its slot without running the completion hook.
			pt = pts[0]
		}
		if pt.Err != nil {
			return nil, pt.Err
		}
		s.simulated.Inc()
		return api.EncodePointResult(pointResult(pt))
	}

	var payload []byte
	var cached bool
	var err error
	if s.cfg.Cache != nil {
		payload, cached, err = s.cfg.Cache.Do(api.Key(j.traceSHA, cfg), run)
	} else {
		payload, err = run()
	}

	var res api.PointResult
	switch {
	case err != nil:
		res = api.PointResult{Error: err.Error(), Category: simerr.Category(err)}
	default:
		res, err = api.DecodePointResult(payload)
		if err != nil {
			res = api.PointResult{Error: err.Error(), Category: simerr.Category(err)}
		} else {
			res.Cached = cached
		}
	}
	j.finish(idx, res)
}

// pointResult converts a finished sweep point to its wire form.
func pointResult(p sweep.Point) api.PointResult {
	if p.Err != nil {
		return api.PointResult{Error: p.Err.Error(), Category: simerr.Category(p.Err)}
	}
	return api.PointResult{
		Workload:       p.Result.Workload,
		Counters:       &p.Result.Counters,
		AvgChainLength: p.Result.AvgChainLength,
		PerCore:        p.Result.PerCore,
		Attempts:       p.Attempts,
		Cached:         p.Resumed,
	}
}

// runCampaign executes one job through the configured campaign runner.
// Every point reaches the job exactly once: live as the runner delivers
// it, or — for points a failed or cancelled campaign never delivered —
// quarantined here, so a polled job always reaches the done state
// instead of hanging in "running" forever.
func (s *Server) runCampaign(j *job) {
	defer s.wg.Done()
	n := len(j.cfgs)
	s.queued.Add(-int64(n))
	s.inflight.Add(int64(n))
	var mu sync.Mutex
	delivered := make([]bool, n)
	deliver := func(idx int, r api.PointResult) {
		mu.Lock()
		dup := delivered[idx]
		delivered[idx] = true
		mu.Unlock()
		if dup {
			return
		}
		s.inflight.Add(-1)
		if r.Error == "" && !r.Cached {
			s.simulated.Inc()
		}
		j.finish(idx, r)
	}
	err := s.cfg.Campaign(s.baseCtx, j.tr, j.cfgs, func(idx int, p sweep.Point) {
		deliver(idx, pointResult(p))
	})
	for i := 0; i < n; i++ {
		ferr := err
		if ferr == nil {
			ferr = fmt.Errorf("campaign runner returned without delivering point %d: %w", i, simerr.ErrUnavailable)
		}
		deliver(i, api.PointResult{Error: ferr.Error(), Category: simerr.Category(ferr)})
	}
}

// --- jobs -------------------------------------------------------------

// job is one submitted campaign and its progress.
type job struct {
	id       string
	seq      int
	traceSHA string
	tr       *trace.Trace
	cfgs     []sim.Config

	mu      sync.Mutex
	results []api.PointResult
	done    int
	failed  int
	cached  int
	changed chan struct{} // closed and replaced by every finish: wakes await
}

func (j *job) finish(idx int, r api.PointResult) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.results[idx] = r
	j.done++
	if r.Error != "" {
		j.failed++
	}
	if r.Cached {
		j.cached++
	}
	close(j.changed)
	j.changed = make(chan struct{})
}

// await blocks until the job is done, ctx ends, or drain is closed.
func (j *job) await(ctx context.Context, drain <-chan struct{}) {
	for {
		j.mu.Lock()
		done, changed := j.done == len(j.cfgs), j.changed
		j.mu.Unlock()
		if done {
			return
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return
		case <-drain:
			return
		}
	}
}

func (j *job) finished() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.done == len(j.cfgs)
}

func (j *job) status() api.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := api.JobStatus{
		ID:     j.id,
		Total:  len(j.cfgs),
		Done:   j.done,
		Failed: j.failed,
		Cached: j.cached,
	}
	switch {
	case j.done == 0:
		st.State = api.JobQueued
	case j.done < len(j.cfgs):
		st.State = api.JobRunning
	default:
		st.State = api.JobDone
		st.Results = append([]api.PointResult(nil), j.results...)
	}
	return st
}

// --- trace store ------------------------------------------------------

// traceStore holds uploaded traces by digest with LRU eviction. Jobs
// keep their own *trace.Trace reference, so eviction only forces a
// future re-upload, never breaks a running campaign.
type traceStore struct {
	mu    sync.Mutex
	max   int
	order []string // LRU order, most recent last
	byKey map[string]*trace.Trace
}

func newTraceStore(max int) *traceStore {
	return &traceStore{max: max, byKey: map[string]*trace.Trace{}}
}

func (ts *traceStore) len() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.byKey)
}

func (ts *traceStore) get(sha string) *trace.Trace {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	tr, ok := ts.byKey[sha]
	if ok {
		ts.touchLocked(sha)
	}
	return tr
}

func (ts *traceStore) put(sha string, tr *trace.Trace) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if _, ok := ts.byKey[sha]; ok {
		ts.touchLocked(sha)
		return
	}
	ts.byKey[sha] = tr
	ts.order = append(ts.order, sha)
	for len(ts.byKey) > ts.max {
		victim := ts.order[0]
		ts.order = ts.order[1:]
		delete(ts.byKey, victim)
	}
}

func (ts *traceStore) touchLocked(sha string) {
	for i, s := range ts.order {
		if s == sha {
			ts.order = append(append(ts.order[:i:i], ts.order[i+1:]...), sha)
			return
		}
	}
}
