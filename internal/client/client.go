// Package client is the Go client for the vmserved simulation service:
// trace upload with digest negotiation, job submission, and waiting on
// a job's long poll, with retry/backoff built on the internal/simerr
// taxonomy so a transiently overloaded server (429 + Retry-After, 503
// while draining, a dropped connection) is retried and a real error
// (bad config, unknown trace, protocol mismatch) is surfaced
// immediately.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/simerr"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// Client talks to one vmserved instance. The zero value is not usable;
// construct with New. Safe for concurrent use.
type Client struct {
	base string
	http *http.Client

	// Retries bounds how many times a transient failure (connection
	// error, 429, 503, 5xx) is retried per call; Backoff is the base of
	// the exponential delay between attempts, overridden by the
	// server's Retry-After when present. Each delay carries
	// deterministic jitter — see SeedJitter.
	Retries int
	Backoff time.Duration

	// jitter decorrelates this client's retry schedule from every other
	// client's (see SeedJitter); jmu serializes draws, since a
	// coordinator polls many jobs through one client concurrently.
	jmu    sync.Mutex
	jitter *rng.Source
}

// New builds a client for the server at base (e.g.
// "http://127.0.0.1:8080"), with 4 retries at 250ms exponential
// backoff. The retry jitter stream is seeded from the endpoint string,
// so a fleet of workers hammering the same coordinator (or vice versa)
// spreads its retries deterministically instead of synchronizing into
// storms — same endpoint, same schedule; different endpoint, different
// schedule. Use SeedJitter to decorrelate clients sharing an endpoint.
func New(base string) *Client {
	base = strings.TrimRight(base, "/")
	h := fnv.New64a()
	h.Write([]byte(base)) //nolint:errcheck // fnv never fails
	return &Client{
		base:    base,
		http:    &http.Client{},
		Retries: 4,
		Backoff: 250 * time.Millisecond,
		jitter:  rng.New(h.Sum64()),
	}
}

// SeedJitter resets the client's deterministic retry-jitter stream.
// Clients with equal seeds (and equal Backoff) produce identical delay
// schedules; distinct seeds produce decorrelated ones. Call it before
// issuing requests when many clients share one endpoint — e.g. the
// coordinator gives each worker connection its own seed.
func (c *Client) SeedJitter(seed uint64) {
	c.jmu.Lock()
	c.jitter = rng.New(seed)
	c.jmu.Unlock()
}

// maxRetryBackoff caps the exponential inter-attempt delay.
const maxRetryBackoff = 15 * time.Second

// Health checks liveness and returns the server's engine identity.
func (c *Client) Health(ctx context.Context) (api.Health, error) {
	var h api.Health
	err := c.call(ctx, http.MethodGet, "/v1/healthz", nil, "", &h)
	return h, err
}

// Ready probes readiness without retrying — it is the failover signal,
// so a slow or refusing endpoint must answer "not ready" immediately,
// not after a retry budget. The parsed body is returned even on a 503,
// so callers can see queue depth and the draining flag.
func (c *Client) Ready(ctx context.Context) (api.Ready, error) {
	var rd api.Ready
	err := c.once(ctx, http.MethodGet, "/v1/readyz", nil, "", &rd)
	if err != nil {
		var he *httpError
		if AsHTTPError(err, &he) && he.status == http.StatusServiceUnavailable {
			// An unready daemon answers 503 with the Ready body itself.
			json.Unmarshal(he.body, &rd) //nolint:errcheck // best-effort detail
		}
		return rd, err
	}
	return rd, nil
}

// EnsureTrace makes tr resident on the server, uploading only when the
// server does not already hold a trace with the same digest. It returns
// the digest that submissions should reference.
func (c *Client) EnsureTrace(ctx context.Context, tr *trace.Trace) (string, error) {
	sha := trace.SHA256(tr)
	var have api.TraceUploaded
	err := c.call(ctx, http.MethodGet, "/v1/traces/"+sha, nil, "", &have)
	if err == nil {
		return sha, nil
	}
	if !IsNotFound(err) {
		return "", err
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		return "", fmt.Errorf("client: serializing trace: %w", err)
	}
	var up api.TraceUploaded
	if err := c.call(ctx, http.MethodPost, "/v1/traces", buf.Bytes(), "application/octet-stream", &up); err != nil {
		return "", err
	}
	if up.SHA256 != sha {
		return "", fmt.Errorf("client: server hashed the trace to %s, locally %s: %w", up.SHA256, sha, simerr.ErrTraceCorrupt)
	}
	return sha, nil
}

// Submit sends one job — every configuration simulated over the
// identified trace — and returns the acknowledgement.
func (c *Client) Submit(ctx context.Context, traceSHA string, cfgs []sim.Config) (api.SubmitResponse, error) {
	body, err := json.Marshal(api.SubmitRequest{APIVersion: api.Version, TraceSHA256: traceSHA, Configs: cfgs})
	if err != nil {
		return api.SubmitResponse{}, fmt.Errorf("client: encoding request: %w", err)
	}
	var sr api.SubmitResponse
	if err := c.call(ctx, http.MethodPost, "/v1/jobs", body, "application/json", &sr); err != nil {
		return api.SubmitResponse{}, err
	}
	return sr, nil
}

// Job fetches the current status of one job.
func (c *Client) Job(ctx context.Context, id string) (api.JobStatus, error) {
	return c.JobWait(ctx, id, 0)
}

// JobWait fetches one job's status, letting the server hold the request
// until the job is done or wait elapses (0 answers at once).
func (c *Client) JobWait(ctx context.Context, id string, wait time.Duration) (api.JobStatus, error) {
	path := "/v1/jobs/" + id
	if wait > 0 {
		path += "?wait=" + wait.String()
	}
	var st api.JobStatus
	err := c.call(ctx, http.MethodGet, path, nil, "", &st)
	return st, err
}

// Wait returns once the job is done (or ctx is cancelled). Each request
// is held by the server up to wait (<= 0 selects 200ms); onStatus, when
// non-nil, runs after every answer so callers can surface progress.
func (c *Client) Wait(ctx context.Context, id string, wait time.Duration, onStatus func(api.JobStatus)) (api.JobStatus, error) {
	if wait <= 0 {
		wait = 200 * time.Millisecond
	}
	for {
		st, err := c.JobWait(ctx, id, wait)
		if err != nil {
			return api.JobStatus{}, err
		}
		if onStatus != nil {
			onStatus(st)
		}
		if st.State == api.JobDone {
			return st, nil
		}
		if ctx.Err() != nil {
			return api.JobStatus{}, fmt.Errorf("client: waiting for job %s: %w: %w", id, simerr.ErrCancelled, context.Cause(ctx))
		}
	}
}

// ToSweepPoint rebuilds the sweep.Point a local campaign would have
// produced for cfg from its wire result, so downstream consumers (CSV
// emission, plotting) are byte-compatible with a local run. A failed
// point carries a typed error rebuilt from the server's simerr
// category.
func ToSweepPoint(cfg sim.Config, r api.PointResult) sweep.Point {
	p := sweep.Point{Config: cfg, Attempts: r.Attempts, Resumed: r.Cached}
	if r.Error != "" {
		p.Err = fmt.Errorf("server: %s: %w", r.Error, simerr.ForCategory(r.Category))
		return p
	}
	p.Result = &sim.Result{Workload: r.Workload, AvgChainLength: r.AvgChainLength, PerCore: r.PerCore}
	if r.Counters != nil {
		p.Result.Counters = *r.Counters
	}
	return p
}

// --- transport --------------------------------------------------------

// httpError is a non-2xx response, carrying enough to classify, to
// honor Retry-After, and to recover typed bodies (the readyz detail).
type httpError struct {
	status     int
	msg        string
	body       []byte
	retryAfter time.Duration
}

func (e *httpError) Error() string {
	return fmt.Sprintf("server answered %d: %s", e.status, e.msg)
}

// Unwrap maps the status onto the simerr taxonomy: backpressure and
// server-side trouble are transient (retryable), everything else is
// the caller's error.
func (e *httpError) Unwrap() error {
	if e.status == http.StatusTooManyRequests || e.status == http.StatusServiceUnavailable || e.status >= 500 {
		return simerr.ErrUnavailable
	}
	return nil
}

// IsNotFound reports whether err is the server's 404. The coordinator
// uses it to recognize a restarted worker that lost its uploaded trace
// (re-upload and retry) and a poll for a job the worker no longer knows.
func IsNotFound(err error) bool {
	var he *httpError
	return AsHTTPError(err, &he) && he.status == http.StatusNotFound
}

// AsHTTPError reports whether err (or anything it wraps) is an HTTP
// status error from the server, and if so stores it in *target.
func AsHTTPError(err error, target **httpError) bool {
	for err != nil {
		if he, ok := err.(*httpError); ok {
			*target = he
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// call performs one API call with bounded retry of transient failures.
// body, when non-nil, is replayed on every attempt; out, when non-nil,
// receives the decoded 2xx JSON response.
func (c *Client) call(ctx context.Context, method, path string, body []byte, contentType string, out any) error {
	var last error
	for attempt := 0; ; attempt++ {
		err := c.once(ctx, method, path, body, contentType, out)
		if err == nil {
			return nil
		}
		last = err
		if attempt >= c.Retries || !simerr.Transient(err) || ctx.Err() != nil {
			return err
		}
		if !c.sleep(ctx, attempt, err) {
			return last
		}
	}
}

// backoffDelay computes the delay before retry attempt+1: exponential
// growth from Backoff capped at maxRetryBackoff, then deterministic
// full jitter into [d/2, d). The jitter draw comes from the client's
// seeded rng stream, so a fleet of clients retrying the same outage
// spreads out deterministically — identical seeds replay identical
// schedules (pinned by TestBackoffScheduleDeterministic), distinct
// seeds never synchronize into a retry storm.
func (c *Client) backoffDelay(attempt int) time.Duration {
	d := c.Backoff
	if d <= 0 {
		d = 250 * time.Millisecond
	}
	for i := 0; i < attempt && d < maxRetryBackoff; i++ {
		d *= 2
	}
	if d > maxRetryBackoff {
		d = maxRetryBackoff
	}
	c.jmu.Lock()
	if c.jitter == nil { // zero-value Client used directly in tests
		c.jitter = rng.New(0)
	}
	f := c.jitter.Float64()
	c.jmu.Unlock()
	half := d / 2
	return half + time.Duration(f*float64(half))
}

// sleep waits out the backoff before the next attempt, preferring the
// server's Retry-After hint; false means ctx fired first.
func (c *Client) sleep(ctx context.Context, attempt int, err error) bool {
	d := c.backoffDelay(attempt)
	var he *httpError
	if AsHTTPError(err, &he) && he.retryAfter > 0 {
		d = he.retryAfter
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// maxRetryAfter clamps the server's Retry-After hint. A hint is only a
// hint: a misconfigured (or hostile) server saying "come back in an
// hour" must not park a retry loop for longer than the client would
// ever choose to wait on its own.
const maxRetryAfter = 2 * time.Minute

// parseRetryAfter interprets a Retry-After header value, which RFC 9110
// allows in two forms: a non-negative integer of seconds, or an
// HTTP-date. Zero means "no usable hint" — the caller falls back to its
// own backoff — and covers malformed values, non-positive delays, and
// dates already in the past. Positive results are clamped to
// maxRetryAfter.
func parseRetryAfter(v string, now time.Time) time.Duration {
	v = strings.TrimSpace(v)
	var d time.Duration
	if secs, err := strconv.Atoi(v); err == nil {
		if secs <= 0 {
			return 0
		}
		d = time.Duration(secs) * time.Second
	} else if t, err := http.ParseTime(v); err == nil {
		d = t.Sub(now)
		if d <= 0 {
			return 0
		}
	} else {
		return 0
	}
	if d > maxRetryAfter {
		d = maxRetryAfter
	}
	return d
}

// once is a single request/response cycle.
func (c *Client) once(ctx context.Context, method, path string, body []byte, contentType string, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		// The caller's cancellation is not the server's fault.
		if ctx.Err() != nil {
			return fmt.Errorf("client: %s %s: %v: %w", method, path, err, simerr.ErrCancelled)
		}
		// Any other transport-level failure (refused, reset, timed out
		// dial) is transient by classification; the retry loop decides
		// whether to spend an attempt on it.
		return fmt.Errorf("client: %s %s: %v: %w", method, path, err, simerr.ErrUnavailable)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		he := &httpError{status: resp.StatusCode}
		he.body, _ = io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		var e api.Error
		if err := json.Unmarshal(he.body, &e); err == nil {
			he.msg = e.Message
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			he.retryAfter = parseRetryAfter(ra, time.Now())
		}
		return he
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
	}
	return nil
}
