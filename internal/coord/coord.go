// Package coord is the fault-tolerant distributed sweep coordinator: it
// partitions a campaign's points across a fleet of vmserved workers and
// survives every worker failure mode short of losing the campaign's own
// journal. Workers register at admission (engine identities must agree,
// or re-dispatch would forfeit byte-identity) and are heartbeated with
// readiness probes; points are handed out as leases — batches submitted
// as one job per worker and waited on — and a lease whose worker dies,
// partitions, or stops making progress past its deadline is reclaimed
// and its incomplete points re-dispatched to the next worker on a
// consistent-hash ring keyed by the points' content addresses (so a
// re-run lands on warm result caches, and failover is deterministic).
// Re-dispatch is bounded by the internal/simerr taxonomy: deterministic
// failures (bad config, corrupt trace) quarantine immediately; a point
// that fails transiently on several distinct leases is quarantined as a
// poison point rather than ping-ponged forever. Idle workers steal
// pending points from the most backlogged queue, so one slow worker
// cannot stretch the campaign. Completed points are appended to the
// same CRC-journalled checkpoint local sweeps use (identical keys and
// payloads — see sweep.PointKey), so a killed coordinator resumes
// exactly, and a journal written locally resumes remotely and vice
// versa.
//
// The output contract is the one that makes all of this testable:
// points are index-aligned with the submitted configurations and each
// result is bit-identical to a local run, so the CSV a chaos-ridden
// three-worker campaign emits is byte-for-byte the CSV of a serial
// single-node run.
package coord

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/journal"
	"repro/internal/sim"
	"repro/internal/simerr"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// Defaults for Options' zero values.
const (
	// DefaultLeasePoints is the points-per-lease batch size: small
	// enough that a reclaimed lease re-dispatches little work, large
	// enough that a worker's pool is not left idle at every lease's
	// tail while the next lease is submitted.
	DefaultLeasePoints = 32
	// DefaultLeaseTimeout is the no-progress deadline after which a
	// lease is reclaimed, and the per-RPC bound that turns a hung
	// worker's silence into a typed failure.
	DefaultLeaseTimeout = 30 * time.Second
	// DefaultPoll is the interval between readiness probes of a down
	// worker.
	DefaultPoll = 100 * time.Millisecond
	// DefaultMaxPointFailures is how many distinct lease failures a
	// point survives before being quarantined as poison.
	DefaultMaxPointFailures = 3
)

// Options configures a distributed campaign.
type Options struct {
	// Endpoints are the worker base URLs (e.g. "http://10.0.0.1:8080").
	// At least one must be reachable at admission.
	Endpoints []string

	// LeasePoints is the batch size per lease (<= 0 selects
	// DefaultLeasePoints).
	LeasePoints int
	// LeaseTimeout is the no-progress deadline for reclaiming a lease
	// and the per-RPC timeout (<= 0 selects DefaultLeaseTimeout). A
	// worker that accepts a lease but completes no further points for
	// this long loses the lease; an RPC that hangs this long marks the
	// worker down.
	LeaseTimeout time.Duration
	// Poll is the interval between readiness probes of a down worker
	// (<= 0 selects DefaultPoll).
	Poll time.Duration
	// MaxPointFailures is how many failed leases a point may be part of
	// before quarantine (<= 0 selects DefaultMaxPointFailures).
	// Deterministic point failures (invalid config, corrupt trace)
	// quarantine immediately regardless.
	MaxPointFailures int

	// JournalDir, when non-empty, checkpoints every completed point to
	// the crash-safe journal in that directory — the coordinator's
	// durable state. Keys and payloads are sweep's own (PointKey /
	// EncodePointPayload), so local and distributed campaigns resume
	// from each other's journals.
	JournalDir string
	// Resume replays JournalDir before dispatching, restoring completed
	// points bit-identically instead of re-running them.
	Resume bool

	// Seed, when non-zero, decorrelates the per-worker retry-jitter
	// streams from the endpoint-derived defaults (see
	// client.SeedJitter).
	Seed uint64

	// PointDone, when non-nil, runs once per finished point — fetched,
	// replayed from the journal, or quarantined — with the point exactly
	// as it will appear in the returned slice. Called concurrently; it
	// must be safe for concurrent use.
	PointDone func(index int, p sweep.Point)
	// Logf, when non-nil, receives coordinator lifecycle diagnostics
	// (registration, lease reclaim, failover, quarantine).
	Logf func(format string, args ...any)
}

// Run executes the campaign across opts.Endpoints and returns points
// index-aligned with cfgs, each bit-identical to what a local
// sweep.RunWithOptions would have produced. The returned error reports
// campaign-level trouble only — no reachable workers, mismatched worker
// engines, an unusable journal — never a point failure: failing points
// are quarantined into their slots and the campaign completes.
func Run(ctx context.Context, tr *trace.Trace, cfgs []sim.Config, opts Options) ([]sweep.Point, error) {
	points := make([]sweep.Point, len(cfgs))
	if len(cfgs) == 0 {
		return points, nil
	}
	if err := tr.Validate(); err != nil {
		for i := range points {
			points[i] = sweep.Point{Config: cfgs[i], Err: err}
		}
		return points, nil
	}
	if opts.LeasePoints <= 0 {
		opts.LeasePoints = DefaultLeasePoints
	}
	if opts.LeaseTimeout <= 0 {
		opts.LeaseTimeout = DefaultLeaseTimeout
	}
	if opts.Poll <= 0 {
		opts.Poll = DefaultPoll
	}
	if opts.MaxPointFailures <= 0 {
		opts.MaxPointFailures = DefaultMaxPointFailures
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}

	// cctx is cancelled when the campaign finishes, so in-flight probes
	// against hung workers unwind immediately instead of waiting out
	// their timeouts; parent stays the caller's context, the only signal
	// that marks points as user-cancelled.
	cctx, finish := context.WithCancel(ctx)
	defer finish()

	c := &campaign{
		ctx:       cctx,
		parent:    ctx,
		finish:    finish,
		tr:        tr,
		sha:       trace.SHA256(tr),
		cfgs:      cfgs,
		opts:      opts,
		points:    points,
		ring:      newRing(opts.Endpoints),
		keyHash:   make([]uint64, len(cfgs)),
		queues:    make([][]int, len(opts.Endpoints)),
		failures:  make([]int, len(cfgs)),
		lastFail:  make([]error, len(cfgs)),
		done:      make([]bool, len(cfgs)),
		remaining: len(cfgs),
		regs:      make([]api.WorkerRegistration, len(opts.Endpoints)),
	}
	c.cond = sync.NewCond(&c.mu)
	for i, cfg := range cfgs {
		c.keyHash[i] = hash64(api.Key(c.sha, cfg))
	}
	for i, ep := range opts.Endpoints {
		w := &worker{idx: i, endpoint: ep, tk: client.NewTracker(ep)}
		if opts.Seed != 0 {
			w.tk.C.SeedJitter(opts.Seed ^ hash64(ep))
		}
		c.workers = append(c.workers, w)
	}

	if err := c.register(); err != nil {
		return nil, err
	}
	if err := c.openJournal(); err != nil {
		return nil, err
	}
	c.assign()
	if c.finished() {
		finish()
	}

	// Wake cond waiters when the caller cancels; drivers re-check
	// parent.Err() on every pass.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			c.mu.Lock()
			c.cond.Broadcast()
			c.mu.Unlock()
		case <-stop:
		}
	}()

	var wg sync.WaitGroup
	for _, w := range c.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			c.drive(w)
		}(w)
	}
	wg.Wait()

	// Fill in whatever never reached a terminal state: user
	// cancellation, or every worker gone for good.
	for i := range c.points {
		if c.done[i] {
			continue
		}
		if err := ctx.Err(); err != nil {
			c.points[i] = sweep.Point{Config: cfgs[i], Err: fmt.Errorf(
				"coord: point not completed: %w: %w", simerr.ErrCancelled, context.Cause(ctx))}
			continue
		}
		ferr := c.lastFail[i]
		if ferr == nil {
			ferr = simerr.ErrUnavailable
		}
		c.points[i] = sweep.Point{Config: cfgs[i], Err: fmt.Errorf(
			"coord: no workers available for point %s: %w", cfgs[i].Label(), ferr)}
	}
	return c.points, c.jerr
}

// campaign is the shared state of one Run.
type campaign struct {
	ctx    context.Context // cancelled when the campaign completes
	parent context.Context // the caller's context: user cancellation
	finish context.CancelFunc
	tr     *trace.Trace
	sha    string
	cfgs   []sim.Config
	opts   Options

	ring    *ring
	keyHash []uint64 // per-point ring position (content-address hash)
	workers []*worker
	engine  string // the fleet's agreed engine identity

	mu        sync.Mutex
	cond      *sync.Cond
	queues    [][]int // per-worker pending point indices, index order
	failures  []int   // per-point failed-lease counts
	lastFail  []error // per-point most recent failure
	done      []bool  // per-point terminal flag
	remaining int     // points not yet terminal
	leaseSeq  int
	points    []sweep.Point
	regs      []api.WorkerRegistration

	jw       *journal.Writer
	jerrOnce sync.Once
	jerr     error
}

// worker is one endpoint's connection state.
type worker struct {
	idx      int
	endpoint string
	tk       *client.Tracker

	tmu     sync.Mutex
	ensured bool // trace known resident on this worker

	dead bool // permanently excluded (engine mismatch); guarded by campaign.mu
}

// forget drops the resident-trace memo (the worker restarted).
func (w *worker) forget() {
	w.tmu.Lock()
	w.ensured = false
	w.tmu.Unlock()
}

// ensureTrace makes the campaign's trace resident on w, once per worker
// lifetime (re-armed by forget when a restart is detected).
func (w *worker) ensureTrace(c *campaign) error {
	w.tmu.Lock()
	defer w.tmu.Unlock()
	if w.ensured {
		return nil
	}
	err := c.rpc(func(ctx context.Context) error {
		_, e := w.tk.C.EnsureTrace(ctx, c.tr)
		return e
	})
	if err != nil {
		return err
	}
	w.ensured = true
	return nil
}

// register admits the fleet: every endpoint is health-probed
// concurrently, reachable workers must report one common engine
// identity (mixed engines would produce mixed results and mixed cache
// keys), and unreachable ones start the campaign marked down — the
// probe loop readmits them if they appear later.
func (c *campaign) register() error {
	var wg sync.WaitGroup
	errs := make([]error, len(c.workers))
	for i, w := range c.workers {
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			var h api.Health
			err := c.rpc(func(ctx context.Context) error {
				var e error
				h, e = w.tk.C.Health(ctx)
				return e
			})
			if err != nil {
				errs[i] = err
				w.tk.Observe(err)
				return
			}
			c.regs[i] = api.WorkerRegistration{Endpoint: w.endpoint, Engine: h.Engine}
		}(i, w)
	}
	wg.Wait()
	up := 0
	for i, w := range c.workers {
		if errs[i] != nil {
			c.opts.Logf("coord: worker %s unreachable at registration: %v", w.endpoint, errs[i])
			continue
		}
		up++
		if c.engine == "" {
			c.engine = c.regs[i].Engine
		} else if c.regs[i].Engine != c.engine {
			return fmt.Errorf("coord: worker engines disagree: %s reports %q, %s reports %q — results would not be comparable",
				c.firstWithEngine(c.engine), c.engine, w.endpoint, c.regs[i].Engine)
		}
	}
	if up == 0 {
		return fmt.Errorf("coord: none of the %d worker(s) reachable: %w (first: %v)",
			len(c.workers), simerr.ErrUnavailable, firstNonNil(errs))
	}
	c.opts.Logf("coord: registered %d/%d worker(s), engine %s", up, len(c.workers), c.engine)
	return nil
}

func (c *campaign) firstWithEngine(engine string) string {
	for i, r := range c.regs {
		if r.Engine == engine {
			return c.workers[i].endpoint
		}
	}
	return "?"
}

func firstNonNil(errs []error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// openJournal replays completed points (when resuming) and opens the
// checkpoint for appending.
func (c *campaign) openJournal() error {
	if c.opts.JournalDir == "" {
		return nil
	}
	if c.opts.Resume {
		recs, _, err := journal.Replay(c.opts.JournalDir)
		if err != nil {
			return err
		}
		byKey := journal.Latest(recs)
		resumed := 0
		for i, cfg := range c.cfgs {
			rec, ok := byKey[sweep.PointKey(c.tr, cfg)]
			if !ok {
				continue
			}
			res, err := sweep.DecodePointPayload(cfg, c.tr.Name, rec.Payload)
			if err != nil {
				// Undecodable records are incomplete, never trusted.
				continue
			}
			c.points[i] = sweep.Point{Config: cfg, Result: res, Resumed: true}
			c.done[i] = true
			c.remaining--
			resumed++
			if c.opts.PointDone != nil {
				c.opts.PointDone(i, c.points[i])
			}
		}
		if resumed > 0 {
			c.opts.Logf("coord: resumed %d point(s) from %s", resumed, c.opts.JournalDir)
		}
	}
	jw, err := journal.OpenWriter(c.opts.JournalDir)
	if err != nil {
		return err
	}
	c.jw = jw
	return nil
}

// assign routes every incomplete point to its ring owner's queue, in
// index order. Workers down at admission are skipped over by the ring
// walk, so the campaign starts on whoever is actually there.
func (c *campaign) assign() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.cfgs {
		if c.done[i] {
			continue
		}
		owner := c.ring.owner(c.keyHash[i], c.aliveLocked(-1))
		c.queues[owner] = append(c.queues[owner], i)
	}
}

// aliveLocked returns the ring's aliveness predicate, excluding worker
// `except` (pass -1 to exclude nobody). Callers hold c.mu.
func (c *campaign) aliveLocked(except int) func(int) bool {
	return func(j int) bool {
		if j == except {
			return false
		}
		w := c.workers[j]
		return !w.dead && !w.tk.Down()
	}
}

// finished reports whether every point is terminal or the caller gave
// up.
func (c *campaign) finished() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.finishedLocked()
}

func (c *campaign) finishedLocked() bool {
	return c.remaining == 0 || c.parent.Err() != nil
}

// rpcTimeout bounds every single RPC, turning a hung worker's silence
// into a typed failure within one lease deadline.
func (c *campaign) rpcTimeout() time.Duration { return c.opts.LeaseTimeout }

// rpc runs fn under the per-RPC deadline. A deadline hit is the
// worker's silence, not the caller's cancellation, so it is
// reclassified as ErrUnavailable — otherwise the client's
// context-cancelled wrapping (ErrCancelled) would stop the tracker from
// marking a hung worker down.
func (c *campaign) rpc(fn func(ctx context.Context) error) error {
	rctx, cancel := context.WithTimeout(c.ctx, c.rpcTimeout())
	defer cancel()
	err := fn(rctx)
	if err != nil && rctx.Err() != nil && c.ctx.Err() == nil {
		return fmt.Errorf("coord: rpc timed out after %v: %w", c.rpcTimeout(), simerr.ErrUnavailable)
	}
	return err
}

// take outcomes.
const (
	takeBatch = iota // run the returned lease batch
	takeProbe        // worker is down: probe until readmitted
	takeDone         // campaign over (or worker permanently dead)
)

// take blocks until the worker has something to do: its own queue's
// head, a batch stolen from the most backlogged other queue, a down
// mark to probe away, or campaign completion.
func (c *campaign) take(w *worker) ([]int, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.finishedLocked() || w.dead {
			return nil, takeDone
		}
		if w.tk.Down() {
			return nil, takeProbe
		}
		if n := len(c.queues[w.idx]); n > 0 {
			k := minInt(c.opts.LeasePoints, n)
			batch := append([]int(nil), c.queues[w.idx][:k]...)
			c.queues[w.idx] = c.queues[w.idx][k:]
			return batch, takeBatch
		}
		// Work stealing: an idle worker takes the tail of the most
		// backlogged queue — including a down or dead worker's, which is
		// how their stranded assignments drain.
		victim, best := -1, 0
		for j := range c.queues {
			if j != w.idx && len(c.queues[j]) > best {
				victim, best = j, len(c.queues[j])
			}
		}
		if victim >= 0 {
			k := minInt(c.opts.LeasePoints, best)
			q := c.queues[victim]
			batch := append([]int(nil), q[best-k:]...)
			c.queues[victim] = q[:best-k]
			c.opts.Logf("coord: %s stole %d point(s) from %s", w.endpoint, k, c.workers[victim].endpoint)
			return batch, takeBatch
		}
		c.cond.Wait()
	}
}

// drive is one worker's lifecycle: lease, run, repeat; probe when down.
func (c *campaign) drive(w *worker) {
	for {
		batch, what := c.take(w)
		switch what {
		case takeDone:
			return
		case takeProbe:
			if !c.probeUntilReady(w) {
				return
			}
		case takeBatch:
			c.runLease(w, batch)
		}
	}
}

// probeUntilReady heartbeats a down worker until a readiness probe
// readmits it (returning true) or the campaign ends (false). A revived
// worker must still report the fleet's engine — a worker restarted with
// a different build is permanently excluded, because its results would
// not be byte-comparable.
func (c *campaign) probeUntilReady(w *worker) bool {
	for {
		if c.finished() {
			return false
		}
		if !sleepCtx(c.ctx, c.opts.Poll) {
			return false
		}
		hb := w.tk.Probe(c.ctx, c.rpcTimeout())
		if !hb.Healthy {
			continue
		}
		var h api.Health
		err := c.rpc(func(ctx context.Context) error {
			var e error
			h, e = w.tk.C.Health(ctx)
			return e
		})
		if err != nil {
			w.tk.Observe(err)
			continue
		}
		if h.Engine != c.engine {
			c.opts.Logf("coord: %s revived with engine %q, campaign runs %q: permanently excluded",
				w.endpoint, h.Engine, c.engine)
			c.mu.Lock()
			w.dead = true
			c.mu.Unlock()
			return false
		}
		// The worker may have restarted; its trace residency is unknown.
		w.forget()
		c.opts.Logf("coord: %s readmitted", w.endpoint)
		return true
	}
}

// runLease executes one lease end to end: ensure the trace is resident,
// submit the batch as one job, wait on it under the no-progress
// deadline, and deliver (or reclaim) the points. The worker holds each
// status request until the job is done or half the per-RPC timeout
// passes, so no sleep sits between requests.
func (c *campaign) runLease(w *worker, idxs []int) {
	c.mu.Lock()
	c.leaseSeq++
	lease := api.Lease{ID: c.leaseSeq, Endpoint: w.endpoint, Indices: idxs}
	c.mu.Unlock()
	cfgs := make([]sim.Config, len(idxs))
	for k, idx := range idxs {
		cfgs[k] = c.cfgs[idx]
	}

	var sr api.SubmitResponse
	submit := func() error {
		return c.rpc(func(ctx context.Context) error {
			var e error
			sr, e = w.tk.C.Submit(ctx, c.sha, cfgs)
			return e
		})
	}
	err := w.ensureTrace(c)
	if err == nil {
		err = submit()
		if client.IsNotFound(err) {
			// The worker restarted and lost the trace: re-upload, retry.
			w.forget()
			if e := w.ensureTrace(c); e != nil {
				err = e
			} else {
				err = submit()
			}
		}
	}
	if err != nil {
		c.leaseFailed(w, lease, err)
		return
	}
	lease.JobID = sr.JobID
	c.opts.Logf("coord: lease %d: %d point(s) -> %s (job %s)", lease.ID, len(idxs), w.endpoint, sr.JobID)

	lastProgress := time.Now()
	seen := -1
	for {
		var st api.JobStatus
		err := c.rpc(func(ctx context.Context) error {
			var e error
			st, e = w.tk.C.JobWait(ctx, lease.JobID, c.rpcTimeout()/2)
			return e
		})
		if err != nil {
			c.leaseFailed(w, lease, err)
			return
		}
		w.tk.Observe(nil)
		if p := st.Done + st.Failed; p > seen {
			seen, lastProgress = p, time.Now()
		}
		if st.State == api.JobDone {
			c.deliver(w, lease, cfgs, st.Results)
			return
		}
		if time.Since(lastProgress) > c.opts.LeaseTimeout {
			c.leaseFailed(w, lease, fmt.Errorf(
				"coord: lease %d on %s made no progress for %v: %w",
				lease.ID, w.endpoint, c.opts.LeaseTimeout, simerr.ErrUnavailable))
			return
		}
	}
}

// completion is one point that reached a terminal state, carried out of
// the locked section so journal fsyncs and PointDone callbacks run
// unlocked.
type completion struct {
	idx int
	p   sweep.Point
}

// deliver lands a finished job's results: successes complete (and
// checkpoint), deterministic failures quarantine, transient failures
// charge the point's failure budget and re-dispatch it.
func (c *campaign) deliver(w *worker, lease api.Lease, cfgs []sim.Config, results []api.PointResult) {
	if len(results) != len(lease.Indices) {
		c.leaseFailed(w, lease, fmt.Errorf(
			"coord: %s answered %d result(s) for a %d-point lease: %w",
			w.endpoint, len(results), len(lease.Indices), simerr.ErrUnavailable))
		return
	}
	var comps []completion
	c.mu.Lock()
	for k, idx := range lease.Indices {
		if c.done[idx] {
			continue
		}
		r := results[k]
		if r.Error == "" {
			comps = append(comps, c.completeLocked(idx, client.ToSweepPoint(cfgs[k], r)))
			continue
		}
		perr := fmt.Errorf("coord: worker %s: %s: %w", w.endpoint, r.Error, simerr.ForCategory(r.Category))
		if cat := r.Category; cat == "config" || cat == "trace" {
			// Deterministic: every worker would fail it the same way.
			p := sweep.Point{Config: cfgs[k], Err: perr, Attempts: r.Attempts}
			c.opts.Logf("coord: point %s quarantined (%s): %v", cfgs[k].Label(), cat, perr)
			comps = append(comps, c.completeLocked(idx, p))
			continue
		}
		if comp, quarantined := c.chargeLocked(idx, perr, w.idx); quarantined {
			comps = append(comps, comp)
		}
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	c.flush(comps)
}

// leaseFailed reclaims a lease after an RPC failure or a no-progress
// deadline: the worker is marked per its tracker, and every incomplete
// point in the lease is charged one failure and re-dispatched (or
// quarantined once over budget).
func (c *campaign) leaseFailed(w *worker, lease api.Lease, err error) {
	if c.ctx.Err() != nil {
		return // campaign over; nothing to reclaim
	}
	if down := w.tk.Observe(err); down {
		c.opts.Logf("coord: %s down (%v); reclaiming lease %d", w.endpoint, err, lease.ID)
	} else {
		c.opts.Logf("coord: lease %d on %s failed: %v", lease.ID, w.endpoint, err)
	}
	var comps []completion
	c.mu.Lock()
	for _, idx := range lease.Indices {
		if c.done[idx] {
			continue
		}
		lerr := fmt.Errorf("coord: lease %d on %s: %w", lease.ID, w.endpoint, err)
		if comp, quarantined := c.chargeLocked(idx, lerr, w.idx); quarantined {
			comps = append(comps, comp)
		}
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	c.flush(comps)
}

// chargeLocked records one failed lease against a point. Under budget,
// the point is re-queued to the next alive worker on its ring walk
// (excluding the one that just failed it); over budget, it is
// quarantined as poison — it has now failed on several distinct leases,
// most likely several distinct workers. Callers hold c.mu.
func (c *campaign) chargeLocked(idx int, err error, failedWorker int) (completion, bool) {
	c.failures[idx]++
	c.lastFail[idx] = err
	cfg := c.cfgs[idx]
	if c.failures[idx] >= c.opts.MaxPointFailures {
		p := sweep.Point{Config: cfg, Err: fmt.Errorf(
			"coord: point %s quarantined after %d failed lease(s) across workers: %w",
			cfg.Label(), c.failures[idx], err)}
		c.opts.Logf("coord: point %s quarantined after %d failed lease(s)", cfg.Label(), c.failures[idx])
		return c.completeLocked(idx, p), true
	}
	target := c.ring.owner(c.keyHash[idx], c.aliveLocked(failedWorker))
	c.queues[target] = append(c.queues[target], idx)
	return completion{}, false
}

// completeLocked marks a point terminal. Callers hold c.mu and must
// flush the returned completion after unlocking.
func (c *campaign) completeLocked(idx int, p sweep.Point) completion {
	c.points[idx] = p
	c.done[idx] = true
	c.remaining--
	if c.remaining == 0 {
		c.cond.Broadcast()
		c.finish()
	}
	return completion{idx: idx, p: p}
}

// flush journals and reports completions outside the campaign lock.
func (c *campaign) flush(comps []completion) {
	for _, comp := range comps {
		if c.jw != nil && comp.p.Err == nil {
			payload, err := sweep.EncodePointPayload(comp.p.Result)
			if err != nil {
				c.jerrOnce.Do(func() { c.jerr = err })
			} else if err := c.jw.Append(journal.Record{
				Key: sweep.PointKey(c.tr, c.cfgs[comp.idx]), Index: comp.idx, Payload: payload,
			}); err != nil {
				c.jerrOnce.Do(func() { c.jerr = err })
			}
		}
		if c.opts.PointDone != nil {
			c.opts.PointDone(comp.idx, comp.p)
		}
	}
}

// sleepCtx waits d, reporting false if ctx fired first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
