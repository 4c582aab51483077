package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// tracer makes the traced run of one workload.
type tracer struct {
	e *env
	w workloadDef
	o *outcome
}

// pathState is what one pass over the workload's path leaves behind for
// the metrics.
type pathState struct {
	traces  map[string]*trace.Trace // decoded inputs by trace name
	genRefs int
	gen     time.Duration
	encode  time.Duration
	decRefs int
	decode  time.Duration
	points  []sweep.Point // local campaigns only
	sweeps  time.Duration // wall of the sweep.run spans
	session *sessionResult
}

// runTraced calls each layer's public functions in the order the tools
// use them, twice: once without span recording and once with, so the
// ledger can state its own overhead. It then measures the layers off the
// workload's path on the workload's inputs, so every per-layer metric
// is reported for every workload.
func runTraced(e *env, w workloadDef, o *outcome, spanFile string) error {
	t := &tracer{e: e, w: w, o: o}
	start := time.Now()
	if _, err := t.path(newLedger(false)); err != nil {
		return err
	}
	untraced := time.Since(start)
	led := newLedger(true)
	start = time.Now()
	st, err := t.path(led)
	if err != nil {
		return err
	}
	traced := time.Since(start)
	o.set("ledger.unattributed_frac", 1-led.covered().Seconds()/traced.Seconds(), "frac")
	o.set("ledger.tracing_overhead_frac", traced.Seconds()/untraced.Seconds()-1, "frac")
	if err := led.write(spanFile); err != nil {
		return err
	}
	t.reportSelfTimes(led, traced)

	perRef := func(d time.Duration, refs int) float64 { return float64(d.Nanoseconds()) / float64(refs) }
	o.set("workload.gen_ns_per_ref", perRef(st.gen, st.genRefs), "ns/ref")
	o.set("trace.vmtrc_encode_ns_per_ref", perRef(st.encode, st.genRefs), "ns/ref")
	o.set("trace.vmtrc_decode_ns_per_ref", perRef(st.decode, st.decRefs), "ns/ref")
	return t.probes(st)
}

// reportSelfTimes prints each layer's self time, largest first.
func (t *tracer) reportSelfTimes(led *ledger, wall time.Duration) {
	self := led.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	var b strings.Builder
	fmt.Fprintf(&b, "perfbench: %s traced path %.3fs; self time by layer:", t.w.name, wall.Seconds())
	for _, n := range names {
		fmt.Fprintf(&b, " %s=%.1fms", n, float64(self[n].Microseconds())/1e3)
	}
	fmt.Fprintln(os.Stderr, b.String())
}

// path replays the workload's tool path in-process: vmtrace's synthesis
// and encoding, then vmsweep's decode, validation, sweep, CSV and
// manifest digest — or, for the service workload, vmserved with the
// remote campaigns and streams.
func (t *tracer) path(led *ledger) (*pathState, error) {
	e := t.e
	st := &pathState{traces: map[string]*trace.Trace{}}
	seen := map[string]bool{}
	for _, ts := range t.w.traces() {
		if seen[ts.name] {
			continue
		}
		seen[ts.name] = true
		var tr *trace.Trace
		d, err := led.do("workload.gen", func() (err error) { tr, err = ts.generate(e.seed); return })
		if err != nil {
			return nil, err
		}
		st.gen += d
		st.genRefs += tr.Len()
		d, err = led.do("trace.vmtrc_encode", func() error { return writeVMTRC(ts.path(e.dir), tr) })
		if err != nil {
			return nil, err
		}
		st.encode += d
	}
	if t.w.remote {
		c := t.w.campaigns[0]
		s, err := t.session(led, c)
		if err != nil {
			return nil, err
		}
		st.session = s
		st.traces[c.trace.name] = s.trace
		st.decode, st.decRefs = s.decode, s.decRefs
		return st, nil
	}
	for _, c := range t.w.campaigns {
		var tr *trace.Trace
		d, err := led.do("trace.vmtrc_decode", func() (err error) { tr, err = trace.OpenFile(c.trace.path(e.dir)); return })
		if err != nil {
			return nil, err
		}
		st.decode += d
		st.decRefs += tr.Len()
		st.traces[c.trace.name] = tr
		if _, err := led.do("trace.validate", tr.Validate); err != nil {
			return nil, err
		}
		var cfgs []sim.Config
		if _, err := led.do("sim.config_validate", func() error {
			cfgs = c.configs(e.seed)
			for _, cfg := range cfgs {
				if err := cfg.Validate(); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
		var pts []sweep.Point
		d, err = led.do("sweep.run", func() (err error) {
			pts, err = sweep.RunWithOptions(e.ctx, tr, cfgs, sweep.Options{Workers: e.workers})
			return
		})
		if err != nil {
			return nil, err
		}
		st.sweeps += d
		st.points = append(st.points, pts...)
		var csv bytes.Buffer
		if _, err := led.do("sweep.csv", func() error { _, err := sweep.WriteCSV(&csv, tr.Name, pts); return err }); err != nil {
			return nil, err
		}
		if _, err := led.do("trace.sha256", func() error { trace.SHA256(tr); return nil }); err != nil {
			return nil, err
		}
		if led.record {
			t.checkPoints(pts)
			if err := e.can.checkCSV(c.trace.name, csv.Bytes()); err != nil {
				t.o.canary(fmt.Errorf("in-process sweep: %w", err))
			}
		}
	}
	return st, nil
}

// checkPoints counts a traced pass's campaign points as operations.
func (t *tracer) checkPoints(pts []sweep.Point) {
	t.o.attempted += len(pts)
	for _, p := range pts {
		if p.Err != nil {
			t.o.fail(1, "point %s: %v", p.Config.Label(), p.Err)
		}
	}
}

// writeVMTRC encodes tr to path the way vmtrace -o does.
func writeVMTRC(path string, tr *trace.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if _, err := tr.WriteVMTRC(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// mallocs reads the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// timeMedian runs fn reps times and returns the median duration.
func timeMedian(reps int, fn func() error) (time.Duration, error) {
	var ds []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(start)))
	}
	return time.Duration(median(ds)), nil
}

// timePerCall repeats a batch of calls until at least minProbe has
// passed and returns the mean duration of one call.
func timePerCall(calls int, fn func() error) (time.Duration, error) {
	const minProbe = 20 * time.Millisecond
	start := time.Now()
	n := 0
	for n == 0 || time.Since(start) < minProbe {
		if err := fn(); err != nil {
			return 0, err
		}
		n += calls
	}
	return time.Since(start) / time.Duration(n), nil
}

// subdir creates and returns a directory in the run's scratch space.
func subdir(e *env, name string) string {
	d := filepath.Join(e.dir, name)
	os.MkdirAll(d, 0o755) //nolint:errcheck // the user of d reports the failure
	return d
}
