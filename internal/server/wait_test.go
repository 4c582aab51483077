package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// gatedServer serves jobs through a campaign runner that holds every
// job until release is called (or the server's own context ends), so a
// test decides exactly when a job finishes.
func gatedServer(t *testing.T) (s *Server, ts *httptest.Server, release func()) {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	s = New(Config{Workers: 1, QueueBound: 8,
		Campaign: func(ctx context.Context, tr *trace.Trace, cfgs []sim.Config, done func(int, sweep.Point)) error {
			select {
			case <-gate:
			case <-ctx.Done():
				return ctx.Err()
			}
			for i, p := range sweep.RunContext(ctx, tr, cfgs, 1) {
				done(i, p)
			}
			return nil
		}})
	ts = httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		release()
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	})
	return s, ts, release
}

// getWait issues GET /v1/jobs/{id}?wait=... and returns the status
// code, the decoded status (on 200) and how long the answer took.
func getWait(t *testing.T, base, id, wait string) (int, api.JobStatus, time.Duration) {
	t.Helper()
	start := time.Now()
	resp, err := http.Get(base + "/v1/jobs/" + id + "?wait=" + wait)
	if err != nil {
		t.Error(err)
		return 0, api.JobStatus{}, 0
	}
	defer resp.Body.Close()
	took := time.Since(start)
	var st api.JobStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Error(err)
		}
	}
	return resp.StatusCode, st, took
}

// asyncWait runs getWait in the background.
func asyncWait(t *testing.T, base, id, wait string) <-chan api.JobStatus {
	out := make(chan api.JobStatus, 1)
	go func() {
		_, st, _ := getWait(t, base, id, wait)
		out <- st
	}()
	return out
}

func TestWaitOnDoneJobAnswersAtOnce(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, QueueBound: 8})
	sha := uploadTrace(t, ts.URL, testTrace(t, 2000))
	id := submitOK(t, ts.URL, sha, []sim.Config{sim.Default(sim.VMBase)})
	waitJob(t, ts.URL, id)
	code, st, took := getWait(t, ts.URL, id, "1m")
	if code != http.StatusOK || st.State != api.JobDone || len(st.Results) != 1 {
		t.Fatalf("wait on a done job: status %d, %+v", code, st)
	}
	if took > 5*time.Second {
		t.Fatalf("wait on a done job took %v", took)
	}
}

func TestWaitOnRunningJobAnswersAtCompletion(t *testing.T) {
	_, ts, release := gatedServer(t)
	sha := uploadTrace(t, ts.URL, testTrace(t, 2000))
	id := submitOK(t, ts.URL, sha, []sim.Config{sim.Default(sim.VMBase), sim.Default(sim.VMUltrix)})
	answer := asyncWait(t, ts.URL, id, "1m")
	select {
	case st := <-answer:
		t.Fatalf("wait answered before the job finished: %+v", st)
	case <-time.After(100 * time.Millisecond):
	}
	release()
	select {
	case st := <-answer:
		if st.State != api.JobDone || len(st.Results) != 2 {
			t.Fatalf("wait answered with %+v, want the done job", st)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("wait did not answer when the job finished")
	}
}

func TestWaitOnUnfinishedJobAnswersAtDeadline(t *testing.T) {
	_, ts, _ := gatedServer(t)
	sha := uploadTrace(t, ts.URL, testTrace(t, 2000))
	id := submitOK(t, ts.URL, sha, []sim.Config{sim.Default(sim.VMBase)})
	code, st, took := getWait(t, ts.URL, id, "200ms")
	if code != http.StatusOK || st.State == api.JobDone || st.Results != nil {
		t.Fatalf("wait on a gated job: status %d, %+v", code, st)
	}
	if took < 200*time.Millisecond || took > 10*time.Second {
		t.Fatalf("wait=200ms answered after %v", took)
	}
}

func TestWaitMalformedOrNegativeIs400(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, QueueBound: 8})
	sha := uploadTrace(t, ts.URL, testTrace(t, 2000))
	id := submitOK(t, ts.URL, sha, []sim.Config{sim.Default(sim.VMBase)})
	for _, wait := range []string{"", "soon", "15", "-1s"} {
		if code, _, _ := getWait(t, ts.URL, id, wait); code != http.StatusBadRequest {
			t.Errorf("wait=%q: status %d, want 400", wait, code)
		}
	}
	if code, _, _ := getWait(t, ts.URL, id, "0s"); code != http.StatusOK {
		t.Errorf("wait=0s: status %d, want 200", code)
	}
}

func TestShutdownIsNotHeldUpByWait(t *testing.T) {
	s, ts, release := gatedServer(t)
	sha := uploadTrace(t, ts.URL, testTrace(t, 2000))
	id := submitOK(t, ts.URL, sha, []sim.Config{sim.Default(sim.VMBase)})
	answer := asyncWait(t, ts.URL, id, "1m")
	select {
	case st := <-answer:
		t.Fatalf("wait answered before the drain began: %+v", st)
	case <-time.After(100 * time.Millisecond):
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	shut := make(chan error, 1)
	go func() { shut <- s.Shutdown(ctx) }()
	select {
	case st := <-answer:
		if st.State == api.JobDone {
			t.Fatalf("wait answered with a done job while the runner was still gated: %+v", st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain did not release the held wait")
	}
	// With the wait answered, the HTTP server closes while the job is
	// still running; the drain itself finishes once the job does.
	closed := make(chan struct{})
	go func() { ts.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("HTTP shutdown held up after the drain began")
	}
	release()
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
}
