package sim

import (
	"context"
	"fmt"

	"repro/internal/addr"
	"repro/internal/mmu"
	"repro/internal/simerr"
	"repro/internal/stats"
	"repro/internal/trace"
)

// driver is the one replay driver. The single-core Engine and the
// Multicore cluster both embed it: an Engine drives the 1-element slice
// holding itself, a Multicore drives its cores. Reference i of a run
// executes on core i mod len(cores), so the trace order is the global
// execution order and every reference — walker, kernel fault and
// shootdowns included — completes before the next begins.
//
// Whole-trace runs (Run/RunContext) and streams (BeginStream/Feed/
// EndStream) go through replay, which cuts the reference stream into
// segments at the warmup boundary, at every SampleEvery boundary of the
// measured window, and every cancelCheckRefs references when the run is
// cancellable. Each segment runs through runPhase, or through Step per
// reference when invariant checking is on. runPhase folds its tallies
// additively, so the cuts change no counter: a sampled, cancellable or
// streamed run is bit-identical to a plain Run (TestRunMatchesStep,
// TestMulticoreRunMatchesStep and TestStreamMatchesBatch pin this). A
// grouped run (group.go) hands replay its own front- and back-end phases
// in place of runPhase and so shares the same cuts.
//
// Begin/Step/Finish is the readable reference loop the differential
// oracle in internal/check drives.
type driver struct {
	cfg   Config
	cores []*Engine
	// perCore: Results carry every core's own counters (the cluster).
	perCore bool

	// warm is the warmup boundary and pos the number of references
	// replayed so far; next is the core the next reference runs on.
	warm int
	pos  int
	next int

	// Timeline sampling (cfg.SampleEvery > 0; see timeline.go).
	// sampleBase is the snapshot at the start of the measured window,
	// samplePrev the snapshot at the previous interval boundary.
	samples    []TimelineSample
	sampleBase stats.Counters
	samplePrev stats.Counters

	// Streaming state (BeginStream/Feed/EndStream; see stream.go).
	// streamTotal is the declared reference count (-1 when unknown).
	streaming   bool
	streamName  string
	streamTotal int
}

// measuring reports whether the warmup prefix is over; every core
// switches at the same reference.
func (d *driver) measuring() bool { return d.cores[0].live }

// begin initializes the replay state for a run over total references
// (total < 0: unknown length, warmup uncapped — the streaming case).
func (d *driver) begin(total int) {
	d.warm = d.cfg.WarmupInstrs
	if total >= 0 && d.warm > total/2 {
		d.warm = total / 2
	}
	d.pos, d.next = 0, 0
	d.samples = nil
	for _, e := range d.cores {
		e.live = d.warm == 0
	}
	if d.measuring() {
		// No warmup: the measured window starts immediately.
		d.beginSampling()
	}
}

// crossWarm ends the warmup prefix on every core at once: cache and TLB
// contents carry over, statistics restart from zero.
func (d *driver) crossWarm() {
	for _, e := range d.cores {
		e.live = true
		if e.usesTLB {
			e.itlb.ResetStats()
			e.dtlb.ResetStats()
		}
	}
	d.beginSampling()
}

// Begin prepares to replay tr one reference at a time with Step. Run is
// equivalent to Begin + Step per reference + Finish; external checkers
// (internal/check's differential harness) drive that loop themselves so
// they can compare machine state after every reference.
func (d *driver) Begin(tr *trace.Trace) error {
	if err := tr.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	d.begin(len(tr.Refs))
	return nil
}

// Step replays one reference on the core the interleaving assigns and
// records the timeline sample it completes, if any. It returns a non-nil
// error when the kernel fails (memory exhaustion) or, with
// cfg.CheckInvariants set, when a conservation law fails after the
// reference completes.
func (d *driver) Step(r *trace.Ref) error {
	if d.pos == d.warm && !d.measuring() {
		d.crossWarm()
	}
	e := d.cores[d.next]
	if d.next++; d.next == len(d.cores) {
		d.next = 0
	}
	d.pos++
	e.exec(r)
	if err := d.cores[0].kernErr; err != nil {
		return err
	}
	if err := e.maybeCheckInvariants(d.pos); err != nil {
		return err
	}
	if d.sampleDue() {
		d.recordSample(d.pos)
	}
	return nil
}

// Finish assembles the Result after the last reference: the summed
// counters as the headline figures, the timeline closed with its trailing
// partial interval, and, for the cluster, every core's own counters as
// Result.PerCore (always populated, even for one core — the multicore
// result says what each core did).
func (d *driver) Finish(workload string) *Result {
	if every := d.cfg.SampleEvery; every > 0 && d.measuring() && (d.pos-d.warm)%every != 0 {
		// The trailing partial interval, so the series always covers
		// the whole measured window.
		d.recordSample(d.pos)
	}
	res := &Result{
		Config:         d.cfg,
		Workload:       workload,
		AvgChainLength: mmu.AvgChainLength(d.cores[0].refill),
		Timeline:       d.samples,
	}
	if !d.perCore {
		res.Counters = d.cores[0].Snapshot()
		return res
	}
	res.PerCore = make([]stats.Counters, len(d.cores))
	for i, e := range d.cores {
		res.PerCore[i] = e.Snapshot()
		res.Counters.Add(&res.PerCore[i])
	}
	return res
}

// Run replays tr through the simulated machine, following the paper's
// §3.1 pseudocode: translate the fetch (walking the page table on an
// I-TLB miss), look up the I-cache, then — for loads and stores —
// translate the data address and look up the D-cache. For organizations
// without TLBs the walker runs on user-level L2 misses instead.
func (d *driver) Run(tr *trace.Trace) (*Result, error) {
	return d.RunContext(context.Background(), tr)
}

// cancelCheckRefs is how many references a cancellable run replays
// between cooperative cancellation checks. The check is one channel poll
// per segment — invisible against the segment's simulation cost — yet
// bounds how long a pathological configuration can outlive its context,
// which is what lets the sweep pool impose per-point deadlines without
// abandoning goroutines.
const cancelCheckRefs = 1 << 16

// RunContext is Run with cooperative cancellation: at least every
// cancelCheckRefs references it polls ctx and, once the context is done,
// abandons the run with an error wrapping both simerr.ErrCancelled and the
// context's own cause (so errors.Is matches either vocabulary). An
// un-cancelled RunContext is bit-identical to Run.
func (d *driver) RunContext(ctx context.Context, tr *trace.Trace) (*Result, error) {
	if err := d.Begin(tr); err != nil {
		return nil, err
	}
	if err := d.replay(ctx, tr.Refs, d.runPhase); err != nil {
		return nil, err
	}
	return d.Finish(tr.Name), nil
}

// replay feeds refs through the machine in segments cut at the warmup
// boundary, at SampleEvery boundaries and — when ctx is cancellable —
// every cancelCheckRefs references, polling ctx before each segment.
// Each segment goes to phase (runPhase, or a grouped run's pass), which
// replays references d.pos onward within one warmup/live phase; replay
// then advances d.pos past them.
func (d *driver) replay(ctx context.Context, refs []trace.Ref, phase func([]trace.Ref)) error {
	done := ctx.Done()
	every := d.cfg.SampleEvery
	for len(refs) > 0 {
		n := len(refs)
		if done != nil {
			select {
			case <-done:
				return fmt.Errorf("sim: run cancelled at instruction %d: %w: %w",
					d.pos, simerr.ErrCancelled, context.Cause(ctx))
			default:
			}
			n = min(n, cancelCheckRefs-d.pos%cancelCheckRefs)
		}
		if !d.measuring() {
			n = min(n, d.warm-d.pos)
		} else if every > 0 {
			n = min(n, every-(d.pos-d.warm)%every)
		}
		if d.cfg.CheckInvariants {
			// Step per reference, so a violation is pinned to an
			// instruction; Step records the samples itself.
			for i := range refs[:n] {
				if err := d.Step(&refs[i]); err != nil {
					return err
				}
			}
		} else {
			phase(refs[:n])
			d.pos += n
			if err := d.cores[0].kernErr; err != nil {
				return err
			}
			if d.sampleDue() {
				d.recordSample(d.pos)
			}
		}
		refs = refs[n:]
		if d.pos == d.warm && !d.measuring() {
			d.crossWarm()
		}
	}
	return nil
}

// sampleDue reports whether the reference just replayed closed a
// timeline interval.
func (d *driver) sampleDue() bool {
	every := d.cfg.SampleEvery
	return every > 0 && d.measuring() && (d.pos-d.warm)%every == 0
}

// runPhase replays refs within one warmup/live phase, reference i on core
// (next+i) mod len(cores). The body mirrors exec's reference semantics
// exactly, minus the per-step bookkeeping replay handles per segment: the
// phase and the configuration's branches are hoisted into locals, and the
// per-reference tallies every reference performs — user instructions, the
// one I-TLB and at-most-one D-TLB lookup, the L1 hits — fold into each
// core's statistics once per phase: the reference counts follow from the
// rotation, the rest accumulate in the core's batch fields. Misses and all
// charged events still count at the reference where they happen.
func (d *driver) runPhase(refs []trace.Ref) {
	cores := d.cores
	e0 := cores[0]
	live := e0.live
	usesTLB := e0.usesTLB
	tagged := e0.taggedTLB
	c := d.next
	for i := range refs {
		r := &refs[i]
		e := cores[c]
		if c++; c == len(cores) {
			c = 0
		}
		if r.ASID != e.curASID {
			e.switchTo(r.ASID)
			if live {
				e.c.ContextSwitches++
			}
		}
		// asidTag folds the address space into TLB keys; see tlbKey, which
		// the loop inlines with the taggedTLB branch hoisted.
		asidTag := uint64(r.ASID) << 32

		// Instruction side.
		if usesTLB {
			key := addr.VPN(r.PC)
			if tagged {
				key |= asidTag
			}
			if !e.itlb.LookupUncounted(key) {
				e.itlbMiss(r.ASID, r.PC)
			}
		}
		if e.iprobe.HitQuiet(userCacheAddr(r.ASID, r.PC)) {
			e.batchIHits++
		} else {
			e.l1Miss(e.icache, r.ASID, r.PC, true)
		}

		// Data side.
		if r.Kind == trace.None {
			continue
		}
		e.batchData++
		if usesTLB {
			key := addr.VPN(r.Data)
			if tagged {
				key |= asidTag
			}
			if !e.dtlb.LookupUncounted(key) {
				e.dtlbMiss(r.ASID, r.Data)
			}
		}
		if r.Flags&trace.FlagUncached != 0 {
			if live {
				e.c.Charge(stats.L1DMiss, stats.L1MissPenalty)
				e.c.Charge(stats.L2DMiss, stats.L2MissPenalty)
			}
			continue
		}
		if e.dprobe.HitQuiet(userCacheAddr(r.ASID, r.Data)) {
			e.batchDHits++
		} else {
			e.l1Miss(e.dcache, r.ASID, r.Data, false)
		}
	}
	// Core k ran every n-th reference from offset (k-next) mod n.
	n := len(cores)
	for k, e := range cores {
		ran := len(refs) / n
		if (k-d.next+n)%n < len(refs)%n {
			ran++
		}
		e.foldBatch(uint64(ran))
	}
	d.next = c
}

// foldBatch folds the tallies of a phase in which this core ran refs
// references into its statistics. Warm-phase lookups are folded in too;
// the warm-boundary ResetStats clears them exactly as it clears per-step
// tallies.
func (e *Engine) foldBatch(refs uint64) {
	if e.live {
		e.c.UserInstrs += refs
	}
	if e.usesTLB {
		e.itlb.AddLookups(refs)
		e.dtlb.AddLookups(e.batchData)
	}
	e.iprobe.AddHits(e.batchIHits)
	e.dprobe.AddHits(e.batchDHits)
	e.batchData, e.batchIHits, e.batchDHits = 0, 0, 0
}
