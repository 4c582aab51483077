package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/rescache"
	"repro/internal/server"
	"repro/internal/sim"
)

func TestWaitOnWarmJobMakesOneRequest(t *testing.T) {
	cache, err := rescache.New("", 64)
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Config{Workers: 2, QueueBound: 64, Cache: cache})
	var statusGets atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
			statusGets.Add(1)
		}
		s.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	})
	c := New(ts.URL)
	ctx := context.Background()
	sha, err := c.EnsureTrace(ctx, testTrace(t, 5000))
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []sim.Config
	for _, vm := range []string{sim.VMUltrix, sim.VMIntel, sim.VMMach, sim.VMPARISC} {
		for l1 := 1 << 10; l1 <= 128<<10; l1 <<= 1 {
			cfg := sim.Default(vm)
			cfg.L1SizeBytes = l1
			cfgs = append(cfgs, cfg)
		}
	}
	for _, warm := range []bool{false, true} {
		sr, err := c.Submit(ctx, sha, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		statusGets.Store(0)
		st, err := c.Wait(ctx, sr.JobID, time.Minute, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != api.JobDone || st.Failed != 0 || len(st.Results) != len(cfgs) {
			t.Fatalf("warm=%v: job = %+v", warm, st)
		}
		if warm && st.Cached != len(cfgs) {
			t.Fatalf("warm job answered %d of %d points from the cache", st.Cached, len(cfgs))
		}
		if n := statusGets.Load(); n != 1 {
			t.Fatalf("warm=%v: Wait made %d status requests, want 1", warm, n)
		}
	}
}
