package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/api"
	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/oskernel"
	"repro/internal/rescache"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// probeReps is how many times a probe repeats a whole-trace replay; the
// median is reported.
const probeReps = 3

// probes measures every layer on the workload's inputs and sets the
// per-layer metrics the path did not.
func (t *tracer) probes(st *pathState) error {
	e, o := t.e, t.o
	c := t.w.campaigns[0]
	tr := st.traces[c.trace.name]
	n := tr.Len()
	nsPerRef := func(d time.Duration, refs int) float64 { return float64(d.Nanoseconds()) / float64(refs) }
	usOf := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	msOf := func(s float64) float64 { return s * 1e3 }

	d, err := timeMedian(probeReps, func() error { return trace.ValidateRefs(tr.Name, 0, tr.Refs) })
	if err != nil {
		return err
	}
	o.set("trace.validate_ns_per_ref", nsPerRef(d, n), "ns/ref")
	d, _ = timeMedian(probeReps, func() error { trace.SHA256(tr); return nil })
	o.set("trace.sha256_ns_per_ref", nsPerRef(d, n), "ns/ref")

	cfgs := c.configs(e.seed)
	d, err = timePerCall(len(cfgs), func() error {
		for _, cfg := range cfgs {
			if err := cfg.Validate(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	o.set("sim.config_validate_us", usOf(d), "us")
	m0 := mallocs()
	start := time.Now()
	for _, cfg := range cfgs {
		if _, err := sim.NewStreamer(cfg); err != nil {
			return err
		}
	}
	o.set("sim.new_engine_us", usOf(time.Since(start))/float64(len(cfgs)), "us")
	o.set("sim.new_engine_allocs", float64(mallocs()-m0)/float64(len(cfgs)), "allocs")

	if err := t.engineProbes(tr); err != nil {
		return err
	}
	if err := t.kernelProbes(st); err != nil {
		return err
	}

	pts := st.points
	sweepWall := st.sweeps
	if len(pts) == 0 {
		// The service workload's sweep runs inside vmserved, out of the
		// client's sight: time the same campaign locally instead.
		start := time.Now()
		if pts, err = sweep.RunWithOptions(e.ctx, tr, cfgs, sweep.Options{Workers: e.workers}); err != nil {
			return err
		}
		sweepWall = time.Since(start)
	}
	var durs []float64
	var busy time.Duration
	for _, p := range pts {
		durs = append(durs, float64(p.Duration.Nanoseconds())/1e6)
		busy += p.Duration
	}
	o.set("sweep.point_ms_p50", median(durs), "ms")
	pct, tail, ok := tailPercentile(durs)
	if !ok {
		pct, tail = 50, median(durs)
	}
	o.set("sweep.point_ms_tail", tail, "ms")
	o.set("sweep.point_ms_tail_pct", pct, "percentile")
	o.set("sweep.point_samples", float64(len(durs)), "count")
	o.set("sweep.worker_busy_frac", busy.Seconds()/(sweepWall.Seconds()*float64(e.workers)), "frac")

	if err := t.codecProbes(pts); err != nil {
		return err
	}

	s := st.session
	if s == nil {
		if s, err = t.session(newLedger(false), c); err != nil {
			return err
		}
	}
	t.streamCanary(s)
	o.set("server.upload_ms", msOf(s.upload.Seconds()), "ms")
	o.set("server.submit_ms", msOf(median(s.submits)), "ms")
	o.set("server.poll_ms", msOf(median(s.pollRTT)), "ms")
	o.set("server.job_done_ms", msOf(median(s.jobDone)), "ms")
	o.set("client.polls", median(s.polls), "count")
	o.set("client.warm_campaign_ms", msOf(median(s.warm)), "ms")
	o.set("client.stream_ms", msOf(median(s.streamDur)), "ms")
	o.set("client.stream_refs_per_s", float64(s.streamRef)/s.streamAll.Seconds(), "1/s")
	o.set("coord.overhead_ms", msOf(s.coordRun.Seconds()-median(s.warm)), "ms")
	o.set("api.job_status_bytes", float64(len(s.status)), "bytes")
	if lookups := s.cache.Hits + s.cache.Misses; lookups > 0 {
		o.set("rescache.hit_ratio", float64(s.cache.Hits)/float64(lookups), "frac")
	} else {
		o.set("rescache.hit_ratio", 0, "frac")
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: warm campaign polls %v, walls %v s\n", t.w.name, s.polls, s.warm)
	return nil
}

// engineProbes times the engine's replay paths per paper organization on
// tr and reads the simulated event counts.
func (t *tracer) engineProbes(tr *trace.Trace) error {
	e, o := t.e, t.o
	n := tr.Len()
	var sum stats.Counters
	var refs, handlers, pteLoads uint64
	var runAllocs uint64
	var ultrix *sim.Result
	for _, vm := range paperVMs {
		cfg := sim.Default(vm)
		cfg.Seed = e.seed
		var res *sim.Result
		var allocs uint64
		d, err := timeMedian(probeReps, func() error {
			eng, err := sim.NewEngine(cfg)
			if err != nil {
				return err
			}
			m0 := mallocs()
			res, err = eng.Run(tr)
			allocs = mallocs() - m0
			return err
		})
		if err != nil {
			return err
		}
		runAllocs += allocs
		o.set("sim.run_ns_per_ref."+vm, float64(d.Nanoseconds())/float64(n), "ns/ref")
		sum.Add(&res.Counters)
		if vm == "ultrix" {
			ultrix = res
		}

		// The same run through a walker wrapper that counts handler
		// invocations and PTE loads; it must not change the result.
		cr, err := newCountingRefill(cfg)
		if err != nil {
			return err
		}
		eng, err := sim.NewEngineWithRefill(cfg, cr)
		if err != nil {
			return err
		}
		cres, err := eng.Run(tr)
		if err != nil {
			return err
		}
		if cres.Counters != res.Counters {
			o.canary(fmt.Errorf("%s: counting walker changed the result", vm))
		}
		handlers += cr.handlers
		pteLoads += cr.m.pteLoads
		refs += uint64(n)
	}
	o.set("sim.allocs_per_kref", 1e3*float64(runAllocs)/float64(uint64(len(paperVMs))*uint64(n)), "allocs/kref")
	perK := func(x, base uint64) float64 { return 1e3 * float64(x) / float64(base) }
	o.set("tlb.miss_per_kref", perK(sum.ITLBMisses+sum.DTLBMisses, sum.UserInstrs), "1/kref")
	o.set("cache.l1_miss_per_kref", perK(sum.Events[stats.L1IMiss]+sum.Events[stats.L1DMiss], sum.UserInstrs), "1/kref")
	o.set("cache.l2_miss_per_kref", perK(sum.Events[stats.L2IMiss]+sum.Events[stats.L2DMiss], sum.UserInstrs), "1/kref")
	o.set("mmu.handler_per_kref", perK(handlers, refs), "1/kref")
	o.set("ptable.pte_loads_per_kref", perK(pteLoads, refs), "1/kref")

	cfg := sim.Default("ultrix")
	cfg.Seed = e.seed
	var stepRes *sim.Result
	d, err := timeMedian(probeReps, func() error {
		eng, err := sim.NewEngine(cfg)
		if err != nil {
			return err
		}
		if err := eng.Begin(tr); err != nil {
			return err
		}
		for i := range tr.Refs {
			if err := eng.Step(&tr.Refs[i]); err != nil {
				return err
			}
		}
		stepRes = eng.Finish(tr.Name)
		return nil
	})
	if err != nil {
		return err
	}
	o.set("sim.step_ns_per_ref", float64(d.Nanoseconds())/float64(n), "ns/ref")
	if stepRes.Counters != ultrix.Counters {
		o.canary(fmt.Errorf("ultrix: Step replay differs from Run"))
	}

	var feedRes *sim.Result
	d, err = timeMedian(probeReps, func() error {
		s, err := sim.NewStreamer(cfg)
		if err != nil {
			return err
		}
		if err := s.BeginStream(tr.Name, n); err != nil {
			return err
		}
		for i := 0; i < n; i += trace.VMTRCBlockRecords {
			if _, err := s.Feed(tr.Refs[i:min(n, i+trace.VMTRCBlockRecords)]); err != nil {
				return err
			}
		}
		feedRes, err = s.EndStream()
		return err
	})
	if err != nil {
		return err
	}
	o.set("sim.feed_ns_per_ref", float64(d.Nanoseconds())/float64(n), "ns/ref")
	if feedRes.Counters != ultrix.Counters {
		o.canary(fmt.Errorf("ultrix: Feed replay differs from Run"))
	}
	return nil
}

// kernelProbes times the multicore cluster and the OS kernel per policy
// on the multicore-paging trace, generating it when the workload has not.
func (t *tracer) kernelProbes(st *pathState) error {
	e, o := t.e, t.o
	mc := st.traces[mcTrace.name]
	if mc == nil {
		var err error
		if mc, err = mcTrace.generate(e.seed); err != nil {
			return err
		}
	}
	var shootdowns uint64
	for _, pol := range mcPolicies {
		cfg := sim.Default("ultrix")
		cfg.Seed, cfg.Cores, cfg.OSPolicy, cfg.MemFrames = e.seed, mcCores, pol, mcFrames
		m, err := sim.NewMulticore(cfg)
		if err != nil {
			return err
		}
		start := time.Now()
		res, err := m.Run(mc)
		if err != nil {
			return err
		}
		o.set("sim.multicore_ns_per_ref."+pol, float64(time.Since(start).Nanoseconds())/float64(mc.Len()), "ns/ref")
		shootdowns += res.Counters.Events[stats.Shootdown]
	}
	o.set("oskernel.shootdowns", float64(shootdowns), "count")

	pages := kernelPages(mc)
	var faults, evictions, allocs uint64
	for _, pol := range mcPolicies {
		// Pass 1 times the whole replay; pass 2 makes the same decisions
		// (same seed) and times only the calls that evict.
		k, err := oskernel.New(pol, mcFrames, e.seed)
		if err != nil {
			return err
		}
		m0 := mallocs()
		start := time.Now()
		for _, p := range pages {
			if _, _, _, err := k.Touch(p.ASID, p.VPN); err != nil {
				return err
			}
		}
		o.set("oskernel.touch_ns."+pol, float64(time.Since(start).Nanoseconds())/float64(len(pages)), "ns")
		allocs += mallocs() - m0
		faults += k.Faults()
		evictions += k.Evictions()

		k, _ = oskernel.New(pol, mcFrames, e.seed)
		var evict time.Duration
		var nev int
		for _, p := range pages {
			t0 := time.Now()
			_, have, _, _ := k.Touch(p.ASID, p.VPN)
			if have {
				evict += time.Since(t0)
				nev++
			}
		}
		o.set("oskernel.evict_us."+pol, float64(evict.Nanoseconds())/1e3/float64(max(nev, 1)), "us")
	}
	o.set("oskernel.page_faults", float64(faults), "count")
	o.set("oskernel.evictions", float64(evictions), "count")
	o.set("oskernel.allocs_per_fault", float64(allocs)/float64(max(faults, 1)), "allocs")
	return nil
}

// kernelFilter is the size of the direct-mapped page filter kernelPages
// models a core's TLB reach with.
const kernelFilter = 128

// kernelPages turns a multicore trace into the page demands a kernel
// sees: each core's instruction and data pages, passed through a small
// per-core direct-mapped filter so that, as in the simulator, the kernel
// is touched on translation misses rather than on every reference.
func kernelPages(tr *trace.Trace) []oskernel.Page {
	type key struct {
		asid  uint8
		vpn   uint64
		valid bool
	}
	filters := make([][kernelFilter]key, mcCores)
	var out []oskernel.Page
	touch := func(core int, asid uint8, va uint64) {
		vpn := va >> 12
		slot := &filters[core][vpn%kernelFilter]
		if slot.valid && slot.asid == asid && slot.vpn == vpn {
			return
		}
		*slot = key{asid, vpn, true}
		out = append(out, oskernel.Page{ASID: asid, VPN: vpn})
	}
	for i := range tr.Refs {
		r := &tr.Refs[i]
		core := i % mcCores
		touch(core, r.ASID, r.PC)
		if r.Kind != trace.None {
			touch(core, r.ASID, r.Data)
		}
	}
	return out
}

// codecProbes times the wire codec and the result cache on the
// campaign's results.
func (t *tracer) codecProbes(pts []sweep.Point) error {
	o := t.o
	var wire []api.PointResult
	for _, p := range pts {
		if p.Err != nil {
			continue
		}
		wire = append(wire, api.PointResult{Workload: p.Result.Workload, Counters: &p.Result.Counters,
			AvgChainLength: p.Result.AvgChainLength, PerCore: p.Result.PerCore})
	}
	if len(wire) == 0 {
		return fmt.Errorf("no successful points to encode")
	}
	payloads := make([][]byte, len(wire))
	d, err := timePerCall(len(wire), func() (err error) {
		for i, w := range wire {
			if payloads[i], err = api.EncodePointResult(w); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	o.set("api.encode_us", float64(d.Nanoseconds())/1e3, "us")
	d, err = timePerCall(len(wire), func() error {
		for _, p := range payloads {
			if _, err := api.DecodePointResult(p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	o.set("api.decode_us", float64(d.Nanoseconds())/1e3, "us")

	rc, err := rescache.New(subdir(t.e, "rescache-probe"), rescache.DefaultMaxEntries)
	if err != nil {
		return err
	}
	keys := make([]string, len(payloads))
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i+1)
	}
	start := time.Now()
	for i, p := range payloads {
		rc.Put(keys[i], p)
	}
	o.set("rescache.put_us", float64(time.Since(start).Nanoseconds())/1e3/float64(len(keys)), "us")
	d, err = timePerCall(len(keys), func() error {
		for _, k := range keys {
			if _, ok := rc.Get(k); !ok {
				return fmt.Errorf("rescache: %s missing after Put", k)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	o.set("rescache.get_us", float64(d.Nanoseconds())/1e3, "us")
	return nil
}

// streamCanary checks every stream's final counters against a local
// batch run of the same configuration.
func (t *tracer) streamCanary(s *sessionResult) {
	for _, so := range s.streams {
		cfg := so.cfg
		cfg.SampleEvery = 0
		res, err := sim.Simulate(cfg, s.trace)
		switch {
		case err != nil:
			t.o.canary(err)
		case so.out == nil || so.out.Result.Counters == nil:
			t.o.canary(fmt.Errorf("stream %s: no result", cfg.VM))
		case *so.out.Result.Counters != res.Counters:
			t.o.canary(fmt.Errorf("stream %s: counters differ from the local run", cfg.VM))
		}
	}
	t.o.attempted += len(s.streams)
}

// countingRefill wraps an organization's walker to count its
// invocations and the PTE loads it issues, without changing what it
// does.
type countingRefill struct {
	mmu.Refill
	handlers uint64
	m        countingMachine
}

type countingMachine struct {
	mmu.Machine
	pteLoads uint64
}

func (c *countingMachine) PTELoad(a uint64, l2c, memc stats.Component) cache.Level {
	c.pteLoads++
	return c.Machine.PTELoad(a, l2c, memc)
}

func (c *countingRefill) HandleMiss(m mmu.Machine, asid uint8, va uint64, instr bool) {
	c.handlers++
	c.m.Machine = m
	c.Refill.HandleMiss(&c.m, asid, va, instr)
}

// newCountingRefill builds cfg's walker the way sim.NewEngine does:
// from the registry spec over a fresh physical memory.
func newCountingRefill(cfg sim.Config) (*countingRefill, error) {
	spec, err := machine.Lookup(cfg.VM)
	if err != nil {
		return nil, err
	}
	r, err := mmu.Build(spec, mem.New(cfg.PhysMemBytes))
	if err != nil {
		return nil, err
	}
	return &countingRefill{Refill: r}, nil
}
