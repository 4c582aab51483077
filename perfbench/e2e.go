package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/sim"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome accumulates one run's operations, failures and metrics.
type outcome struct {
	attempted int
	failed    int
	// mismatch records a canary failure; it fails every operation of the
	// run, since none of its outputs can be trusted.
	mismatch bool
	problems []string
	metrics  map[string]metric
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

// fail counts n failed operations and records why.
func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// canary records a canary mismatch.
func (o *outcome) canary(err error) {
	o.mismatch = true
	o.problems = append(o.problems, "canary: "+err.Error())
}

func (o *outcome) set(name string, v float64, unit string) {
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// env is what one run works with.
type env struct {
	ctx     context.Context
	bin     string // directory of the built tools
	dir     string // scratch directory of this run
	seed    uint64 // input seed
	seconds time.Duration
	workers int
	can     seedCanaries
}

func (e *env) tool(name string) string { return filepath.Join(e.bin, name) }

const (
	// setupReps is how many times a run repeats its set-up; setup_s is
	// the median.
	setupReps = 9
	// minReps is the fewest timed repetitions a run makes, however short
	// --seconds is.
	minReps = 2
	// warmReps is how many warm-cache campaigns each service cycle runs.
	warmReps = 3
)

// synthesize generates and encodes the traces with vmtrace, setupReps
// times, and returns the median wall time of one full set-up.
func (e *env) synthesize(specs []traceSpec) (float64, error) {
	seen := map[string]bool{}
	var uniq []traceSpec
	for _, t := range specs {
		if !seen[t.name] {
			seen[t.name] = true
			uniq = append(uniq, t)
		}
	}
	var samples []float64
	for rep := 0; rep < setupReps; rep++ {
		var total time.Duration
		for _, t := range uniq {
			r, err := runTool(e.ctx, e.tool("vmtrace"), t.vmtraceArgs(e.seed, t.path(e.dir))...)
			if err != nil {
				return 0, err
			}
			total += r.wall
		}
		samples = append(samples, total.Seconds())
	}
	return median(samples), nil
}

// runLocal times repeated local vmsweep campaigns (paper-sweep,
// multicore-paging).
func runLocal(e *env, w workloadDef, o *outcome) error {
	setup, err := e.synthesize(w.traces())
	if err != nil {
		return err
	}
	walls := make([][]float64, len(w.campaigns))
	rss := make([][]float64, len(w.campaigns))
	lastCSV := map[string][]byte{}
	start := time.Now()
	for rep := 0; rep < minReps || time.Since(start) < e.seconds; rep++ {
		if err := e.ctx.Err(); err != nil {
			return err
		}
		for i, c := range w.campaigns {
			r := e.localCampaign(c, o)
			walls[i] = append(walls[i], r.wall.Seconds())
			rss[i] = append(rss[i], r.rssMB)
			lastCSV[c.trace.name] = r.stdout
		}
	}
	for _, c := range w.campaigns {
		if c.trace.bench == "" {
			e.multicoreCanary(c, lastCSV[c.trace.name], o)
		}
	}
	rate, peak := campaignRate(w.campaigns, e.seed, walls, rss)
	o.set("sim_refs_per_s", rate, "1/s")
	o.set("peak_rss_mb", peak, "MB")
	o.set("setup_s", setup, "s")
	fmt.Fprintf(os.Stderr, "perfbench: %s: sim_refs_per_s %.4g; campaign walls %.3f s\n", w.name, rate, walls)
	return nil
}

// campaignRate turns per-campaign samples into the end-to-end figures:
// simulated references over the sum of each campaign's median wall time,
// and the largest of the campaigns' median peak RSS.
func campaignRate(cs []campaign, seed uint64, walls, rss [][]float64) (rate, peakMB float64) {
	var refs, wall float64
	for i, c := range cs {
		refs += float64(len(c.configs(seed)) * c.trace.refs())
		wall += median(walls[i])
		peakMB = max(peakMB, median(rss[i]))
	}
	return refs / wall, peakMB
}

// localCampaign runs one vmsweep campaign and checks its CSV and manifest.
func (e *env) localCampaign(c campaign, o *outcome) procResult {
	n := len(c.configs(e.seed))
	mpath := filepath.Join(e.dir, c.trace.name+".manifest.json")
	os.Remove(mpath) //nolint:errcheck // absent on the first repetition
	args := append(c.sweepArgs(e.seed, e.dir, e.workers), "-manifest", mpath)
	o.attempted += n
	r, err := runTool(e.ctx, e.tool("vmsweep"), args...)
	if err != nil {
		o.fail(n, "%v", err)
		return r
	}
	data, err := os.ReadFile(mpath)
	if err != nil {
		o.fail(n, "%v", err)
		return r
	}
	m, err := parseManifest(data)
	switch {
	case err != nil:
		o.fail(n, "%v", err)
	case m.Configs != n || m.TraceRefs != c.trace.refs():
		o.fail(n, "vmsweep ran %d points of %d references, want %d of %d", m.Configs, m.TraceRefs, n, c.trace.refs())
	case m.Failed+m.Cancelled > 0:
		o.fail(m.Failed+m.Cancelled, "vmsweep: %d points failed, %d cancelled", m.Failed, m.Cancelled)
	}
	if err := e.can.checkCSV(c.trace.name, r.stdout); err != nil {
		o.canary(err)
	}
	return r
}

// vmsimArgs are the vmsim -json flags that rebuild one campaign point
// over the trace at tracePath.
func vmsimArgs(tracePath string, cfg sim.Config) []string {
	args := []string{"-json", "-tracefile", tracePath, "-vm", cfg.VM, "-seed", strconv.FormatUint(cfg.Seed, 10)}
	if cfg.Cores > 1 {
		args = append(args, "-cores", strconv.Itoa(cfg.Cores), "-ospolicy", cfg.OSPolicy, "-memframes", strconv.Itoa(cfg.MemFrames))
	}
	return args
}

// multicoreCanary re-runs every multicore point with vmsim -json, a few
// at a time, and checks mcpi, vmcpi, page faults and shootdowns against
// the recording and against the CSV vmsweep printed. The CSV cannot be
// checked alone: it has no policy column, so lru and clock rows of the
// same machine look alike.
func (e *env) multicoreCanary(c campaign, csv []byte, o *outcome) {
	cfgs := c.configs(e.seed)
	got, errs := e.multicoreResults(c, cfgs)
	rows := csvRows(csv)
	for i := range cfgs {
		if errs[i] != nil {
			o.canary(errs[i])
			continue
		}
		if err := e.can.checkPoint(i, got[i]); err != nil {
			o.canary(err)
		}
		if i >= len(rows) {
			o.canary(fmt.Errorf("CSV has %d rows, want %d", len(rows), len(cfgs)))
			continue
		}
		if err := checkCSVRow(rows[i], got[i]); err != nil {
			o.canary(err)
		}
	}
}

// multicoreResults runs vmsim -json for each multicore point, e.workers
// at a time.
func (e *env) multicoreResults(c campaign, cfgs []sim.Config) ([]pointCanary, []error) {
	got := make([]pointCanary, len(cfgs))
	errs := make([]error, len(cfgs))
	sem := make(chan struct{}, e.workers)
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, cfg sim.Config) {
			defer wg.Done()
			defer func() { <-sem }()
			label := pointLabel(cfg)
			r, err := runTool(e.ctx, e.tool("vmsim"), vmsimArgs(c.trace.path(e.dir), cfg)...)
			if err != nil {
				errs[i] = err
				return
			}
			got[i], errs[i] = resultCanary(label, r.stdout)
		}(i, cfg)
	}
	wg.Wait()
	return got, errs
}

// runService drives one vmserved per cycle through a cold campaign,
// warm-cache campaigns and concurrent streams.
func runService(e *env, w workloadDef, o *outcome) error {
	c := w.campaigns[0]
	synth, err := e.synthesize(w.traces())
	if err != nil {
		return err
	}
	// Reference outputs for the stream canary: the same trace and
	// configuration simulated locally. Untimed.
	streams := streamConfigs(e.seed, e.workers)
	local := make([][]byte, len(streams))
	for i, sc := range streams {
		r, err := runTool(e.ctx, e.tool("vmsim"), vmsimArgs(c.trace.path(e.dir), sc)...)
		if err != nil {
			return err
		}
		local[i] = r.stdout
	}
	var s serviceSamples
	start := time.Now()
	for cyc := 0; cyc < minReps || time.Since(start) < e.seconds; cyc++ {
		if err := e.ctx.Err(); err != nil {
			return err
		}
		if err := e.serviceCycle(cyc, c, streams, local, o, &s); err != nil {
			return err
		}
	}
	// The cold wall is quantized: vmsweep -remote learns the job is done
	// only at a 200 ms poll tick, so a cycle's wall sits on one of two
	// levels a tick apart, and a median jumps a whole tick when the job
	// time is near a boundary. The rate over all cycles together (the
	// mean wall) moves smoothly with the job time instead.
	var total float64
	for _, w := range s.cold {
		total += w
	}
	rate := float64(len(s.cold)*len(c.configs(e.seed))*c.trace.refs()) / total
	o.set("sim_refs_per_s", rate, "1/s")
	o.set("peak_rss_mb", median(s.rss), "MB")
	o.set("setup_s", synth+median(s.startup), "s")
	fmt.Fprintf(os.Stderr, "perfbench: service: sim_refs_per_s %.4g; cold walls %.3f s; warm walls %.3f s; stream refs/s %.4g\n",
		rate, s.cold, s.warm, s.streams)
	return nil
}

type serviceSamples struct {
	startup, cold, warm, streams, rss []float64
}

// serviceCycle runs one daemon lifetime. Errors are returned only when
// the daemon itself cannot be started or stopped; failed operations are
// counted in o.
func (e *env) serviceCycle(cyc int, c campaign, streams []sim.Config, local [][]byte, o *outcome, s *serviceSamples) error {
	d, err := startDaemon(e.tool("vmserved"), e.workers, filepath.Join(e.dir, fmt.Sprintf("cache-%d", cyc)))
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop() //nolint:errcheck // only on a panic; the normal path stops and checks below
		}
	}()
	s.startup = append(s.startup, d.startup.Seconds())
	n := len(c.configs(e.seed))
	args := append(append([]string{}, c.flags...), "-remote", d.url, "-tracefile", c.trace.path(e.dir),
		"-seed", strconv.FormatUint(e.seed, 10))
	runCampaign := func(warm bool) time.Duration {
		o.attempted += n
		r, err := runTool(e.ctx, e.tool("vmsweep"), args...)
		if err != nil {
			o.fail(n, "%v", err)
			return r.wall
		}
		if err := e.can.checkCSV(c.trace.name, r.stdout); err != nil {
			o.canary(fmt.Errorf("remote (warm=%v): %w", warm, err))
		}
		if replayed := fmt.Sprintf("%d of %d points replayed", n, n); warm && !strings.Contains(string(r.stderr), replayed) {
			o.fail(n, "warm campaign did not replay every point from the cache: %s", lastLine(string(r.stderr)))
		}
		return r.wall
	}
	s.cold = append(s.cold, runCampaign(false).Seconds())
	for i := 0; i < warmReps; i++ {
		s.warm = append(s.warm, runCampaign(true).Seconds())
	}
	s.streams = append(s.streams, e.streamPhase(d.url, c.trace, streams, local, o))
	rss, err := d.stop()
	stopped = true
	if err != nil {
		return err
	}
	s.rss = append(s.rss, rss)
	return nil
}

// streamPhase runs one vmsim -stream session per configuration
// concurrently and returns the references streamed per second of wall
// time. Each session's final JSON must equal the local run's.
func (e *env) streamPhase(url string, t traceSpec, streams []sim.Config, local [][]byte, o *outcome) float64 {
	outs := make([]procResult, len(streams))
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	start := time.Now()
	for i, sc := range streams {
		wg.Add(1)
		go func(i int, cfg sim.Config) {
			defer wg.Done()
			args := append([]string{"-stream", url}, vmsimArgs(t.path(e.dir), cfg)...)
			outs[i], errs[i] = runTool(e.ctx, e.tool("vmsim"), args...)
		}(i, sc)
	}
	wg.Wait()
	wall := time.Since(start)
	o.attempted += len(streams)
	for i := range streams {
		switch {
		case errs[i] != nil:
			o.fail(1, "%v", errs[i])
		case string(outs[i].stdout) != string(local[i]):
			o.canary(fmt.Errorf("stream %d (%s): final JSON differs from the local vmsim -json", i, streams[i].VM))
		}
	}
	return float64(len(streams)*t.refs()) / wall.Seconds()
}
