package coord

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rescache"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// countingWorker serves a real vmserved core and counts job
// submissions and job-status requests.
func countingWorker(t *testing.T, cfg server.Config) (url string, submits, statuses *atomic.Int64) {
	t.Helper()
	s := server.New(cfg)
	submits, statuses = new(atomic.Int64), new(atomic.Int64)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			submits.Add(1)
		case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
			statuses.Add(1)
		}
		s.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	})
	return ts.URL, submits, statuses
}

func TestCoordWarmCampaignIssuesOneStatusRequestPerLease(t *testing.T) {
	tr := testTrace(t, 5000)
	cfgs := testConfigs(3 * DefaultLeasePoints)
	cache, err := rescache.New("", 64)
	if err != nil {
		t.Fatal(err)
	}
	url, submits, statuses := countingWorker(t, server.Config{Workers: 2, QueueBound: 64, Cache: cache})
	opts := fastOpts(url)
	opts.LeasePoints = DefaultLeasePoints
	// Poll only paces probes of a down worker; at a microsecond, a lease
	// that still polled would reach a 32-point warm job before it is
	// done and send several status requests for it.
	opts.Poll = time.Microsecond
	want := serialCSV(t, tr, cfgs)
	for _, warm := range []bool{false, true} {
		submits.Store(0)
		statuses.Store(0)
		points, err := Run(context.Background(), tr, cfgs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := csvOf(t, tr, points); got != want {
			t.Fatalf("warm=%v: CSV differs from serial:\n got: %q\nwant: %q", warm, got, want)
		}
		if !warm {
			continue
		}
		for i, p := range points {
			if !p.Resumed {
				t.Fatalf("warm point %d was simulated, not replayed from the cache", i)
			}
		}
		if s, n := submits.Load(), statuses.Load(); s != 3 || n != s {
			t.Fatalf("warm campaign: %d lease(s), %d status request(s); want 3 and one per lease", s, n)
		}
	}
}

func TestCoordLeaseMakingProgressIsNeverReclaimed(t *testing.T) {
	// The worker finishes one point every 200ms: the lease as a whole
	// outlives the 1s no-progress deadline, but no gap between points
	// does, so the long poll must keep observing progress.
	const step = 200 * time.Millisecond
	tr := testTrace(t, 2000)
	cfgs := testConfigs(8)
	url, submits, _ := countingWorker(t, server.Config{Workers: 1, QueueBound: 64,
		Campaign: func(ctx context.Context, tr *trace.Trace, cfgs []sim.Config, done func(int, sweep.Point)) error {
			for i, cfg := range cfgs {
				select {
				case <-time.After(step):
				case <-ctx.Done():
					return ctx.Err()
				}
				done(i, sweep.RunContext(ctx, tr, []sim.Config{cfg}, 1)[0])
			}
			return nil
		}})
	opts := fastOpts(url)
	opts.LeasePoints = len(cfgs)
	opts.LeaseTimeout = time.Second
	var mu sync.Mutex
	var logs []string
	opts.Logf = func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	start := time.Now()
	points, err := Run(context.Background(), tr, cfgs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < opts.LeaseTimeout {
		t.Fatalf("campaign took %v, shorter than the lease timeout: the test shows nothing", took)
	}
	if got, want := csvOf(t, tr, points), serialCSV(t, tr, cfgs); got != want {
		t.Fatalf("CSV differs from serial:\n got: %q\nwant: %q", got, want)
	}
	if n := submits.Load(); n != 1 {
		t.Fatalf("%d lease(s) submitted, want 1", n)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, l := range logs {
		if strings.Contains(l, "no progress") || strings.Contains(l, "reclaim") || strings.Contains(l, "failed") {
			t.Fatalf("a progressing lease was reclaimed: %q\nall logs:\n%s", l, strings.Join(logs, "\n"))
		}
	}
}
