package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/coord"
	"repro/internal/obs"
	"repro/internal/rescache"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// cliPoll is the interval vmsweep -remote polls a job at.
const cliPoll = 200 * time.Millisecond

// sessionResult is one in-process vmserved session's measurements.
type sessionResult struct {
	trace     *trace.Trace
	decode    time.Duration
	decRefs   int
	upload    time.Duration   // cold EnsureTrace: hash, miss, upload
	submits   []float64       // Submit round trips, seconds
	warm      []float64       // warm campaign walls, seconds
	polls     []float64       // Wait polls per warm campaign
	jobDone   []float64       // submit until a 1 ms poll first sees done, seconds
	pollRTT   []float64       // one Job round trip, seconds
	coordRun  time.Duration   // coord.Run wall for the warm job
	streamDur []float64       // per-session stream wall, seconds
	streamAll time.Duration   // wall of the concurrent stream phase
	streamRef int             // references streamed in total
	streams   []streamOutcome // for the canary
	status    []byte          // final JSON job status of a warm campaign
	cache     rescache.Stats
}

type streamOutcome struct {
	cfg sim.Config
	out *client.StreamOutcome
}

// session runs the service path in-process: a vmserved core with a fresh
// disk cache behind a loopback listener, the campaign cold and then
// warmReps times warm as vmsweep -remote runs it, the concurrent
// streams of vmsim -stream, then the two probes the tools do not make
// (a 1 ms poll of a warm job, and the same warm job through the
// coordinator).
func (t *tracer) session(led *ledger, c campaign) (*sessionResult, error) {
	e := t.e
	ctx := e.ctx
	s := &sessionResult{}
	cfgs := c.configs(e.seed)
	var (
		cache *rescache.Cache
		srv   *server.Server
		hs    *obs.HTTPServer
	)
	if _, err := led.do("server.start", func() (err error) {
		if cache, err = rescache.New(subdir(e, fmt.Sprintf("cache-%d", time.Now().UnixNano())), rescache.DefaultMaxEntries); err != nil {
			return err
		}
		srv = server.New(server.Config{Workers: e.workers, Cache: cache})
		hs, err = obs.StartHTTP("127.0.0.1:0", srv.Handler())
		return err
	}); err != nil {
		return nil, err
	}
	stopped := false
	stop := func() error {
		if stopped {
			return nil
		}
		stopped = true
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			return err
		}
		return srv.Shutdown(sctx)
	}
	defer stop() //nolint:errcheck // the success path stops explicitly and checks
	url := "http://" + hs.Addr
	cl := client.New(url)

	var sha string
	for i := 0; i <= warmReps; i++ {
		r, err := t.remoteCampaign(led, cl, c, cfgs)
		if err != nil {
			return nil, err
		}
		s.trace, sha = r.trace, r.sha
		s.decode += r.decode
		s.decRefs += r.trace.Len()
		s.submits = append(s.submits, r.submit.Seconds())
		if i == 0 {
			s.upload = r.ensure
			continue
		}
		s.warm = append(s.warm, r.wall.Seconds())
		s.polls = append(s.polls, float64(r.polls))
		s.status = r.status
	}

	streams := streamConfigs(e.seed, e.workers)
	for i := range streams {
		streams[i].SampleEvery = 10_000 // vmsim -stream's default -sample
	}
	if _, err := led.do("client.stream", func() error {
		outs, durs, wall, err := runStreams(ctx, cl, streams, s.trace)
		s.streamAll, s.streamDur = wall, durs
		for i := range streams {
			s.streams = append(s.streams, streamOutcome{cfg: streams[i], out: outs[i]})
			s.streamRef += s.trace.Len()
		}
		return err
	}); err != nil {
		return nil, err
	}

	for i := 0; i < warmReps; i++ {
		if _, err := led.do("server.job_done", func() error {
			done, rtts, err := pollUntilDone(ctx, cl, sha, cfgs)
			s.jobDone = append(s.jobDone, done.Seconds())
			s.pollRTT = append(s.pollRTT, rtts...)
			return err
		}); err != nil {
			return nil, err
		}
	}
	// One coordinator run: it leases the job out a few points at a time,
	// so it takes seconds even when every point is a cache hit.
	var err error
	if s.coordRun, err = led.do("coord.run", func() error {
		pts, err := coord.Run(ctx, s.trace, cfgs, coord.Options{Endpoints: []string{url}})
		if err != nil {
			return err
		}
		var csv bytes.Buffer
		if _, err := sweep.WriteCSV(&csv, s.trace.Name, pts); err != nil {
			return err
		}
		if led.record {
			if err := e.can.checkCSV(c.trace.name, csv.Bytes()); err != nil {
				t.o.canary(fmt.Errorf("coord.Run: %w", err))
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if _, err := led.do("server.stop", stop); err != nil {
		return nil, err
	}
	s.cache = cache.Stats()
	return s, nil
}

// remoteRun is one vmsweep -remote campaign made in-process.
type remoteRun struct {
	trace                        *trace.Trace
	sha                          string
	decode, ensure, submit, wall time.Duration
	polls                        int
	status                       []byte
}

// remoteCampaign follows vmsweep -remote: load the trace, make it
// resident on the server, submit the job, poll it every 200 ms, rebuild
// the points and write the CSV, which must match the recorded one.
func (t *tracer) remoteCampaign(led *ledger, cl *client.Client, c campaign, cfgs []sim.Config) (*remoteRun, error) {
	ctx := t.e.ctx
	r := &remoteRun{}
	start := time.Now()
	var err error
	if r.decode, err = led.do("trace.vmtrc_decode", func() (err error) { r.trace, err = trace.OpenFile(c.trace.path(t.e.dir)); return }); err != nil {
		return nil, err
	}
	if r.ensure, err = led.do("client.ensure_trace", func() (err error) { r.sha, err = cl.EnsureTrace(ctx, r.trace); return }); err != nil {
		return nil, err
	}
	var sr api.SubmitResponse
	if r.submit, err = led.do("client.submit", func() (err error) { sr, err = cl.Submit(ctx, r.sha, cfgs); return }); err != nil {
		return nil, err
	}
	var st api.JobStatus
	if _, err := led.do("client.wait", func() (err error) {
		st, err = cl.Wait(ctx, sr.JobID, cliPoll, func(api.JobStatus) { r.polls++ })
		return
	}); err != nil {
		return nil, err
	}
	var csv bytes.Buffer
	if _, err := led.do("client.to_points", func() error {
		pts := make([]sweep.Point, len(cfgs))
		for i, res := range st.Results {
			pts[i] = client.ToSweepPoint(cfgs[i], res)
		}
		if led.record {
			t.checkPoints(pts)
		}
		_, err := sweep.WriteCSV(&csv, r.trace.Name, pts)
		return err
	}); err != nil {
		return nil, err
	}
	r.wall = time.Since(start)
	if led.record {
		if err := t.e.can.checkCSV(c.trace.name, csv.Bytes()); err != nil {
			t.o.canary(fmt.Errorf("in-process remote campaign: %w", err))
		}
	}
	if r.status, err = json.Marshal(st); err != nil {
		return nil, err
	}
	return r, nil
}

// runStreams runs one client.Stream per configuration concurrently.
func runStreams(ctx context.Context, cl *client.Client, cfgs []sim.Config, tr *trace.Trace) ([]*client.StreamOutcome, []float64, time.Duration, error) {
	outs := make([]*client.StreamOutcome, len(cfgs))
	durs := make([]float64, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			outs[i], errs[i] = cl.Stream(ctx, cfgs[i], tr, nil)
			durs[i] = time.Since(t0).Seconds()
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return outs, durs, wall, err
		}
	}
	return outs, durs, wall, nil
}

// pollUntilDone submits a warm job and polls it every millisecond,
// returning the time from submission until a poll first sees it done and
// the round trip of every poll.
func pollUntilDone(ctx context.Context, cl *client.Client, sha string, cfgs []sim.Config) (time.Duration, []float64, error) {
	start := time.Now()
	sr, err := cl.Submit(ctx, sha, cfgs)
	if err != nil {
		return 0, nil, err
	}
	var rtts []float64
	for {
		t0 := time.Now()
		st, err := cl.Job(ctx, sr.JobID)
		rtts = append(rtts, time.Since(t0).Seconds())
		if err != nil {
			return 0, rtts, err
		}
		if st.State == api.JobDone {
			return time.Since(start), rtts, nil
		}
		time.Sleep(time.Millisecond)
	}
}
