package sim

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/simerr"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Grouped runs: one translation front end, many cache back ends.
//
// On the single-core machine without an OS kernel, a cache-blind walker
// (mmu.Refill.CacheBlind) makes the TLBs and the walker independent of
// the caches: the TLB misses, walker calls, handler fetches and PTE
// loads form one event stream whatever the cache geometry, and TLB
// replacement draws on its own rng. So configurations that differ only
// in cache geometry share one front-end pass. It runs the ASID switches,
// the TLBs, the L2 TLB and the walker once, through the same
// itlbMiss/dtlbMiss a single run uses, while ExecHandler and PTELoad
// append the cache operations they would perform to a log. Each cache
// back end then replays the trace's own references plus that log.
//
// Back ends whose L1s are direct-mapped with one line size form an
// inclusion chain, held in ascending L1 size. Under one access stream a
// direct-mapped L1's contents are a subset of every larger power-of-two
// direct-mapped L1's with the same lines: a line is resident exactly when
// it was the last line accessed in its set, and a larger cache's set
// receives a subset of a smaller cache's set's accesses. So an access
// probes the chain in order and stops at the first hit, since every
// larger L1 hits too and a direct-mapped hit changes no state; each
// member that missed fills its L1 and goes on to its own L2. Other L1s
// (the set-associative ablation) are chains of one. Chains run one after
// another, so at most one chain's hierarchies are live at a time.
//
// Counters split the same way. The front end charges everything the
// caches do not decide: instructions, context switches, interrupts, TLB
// lookups and misses, handler base costs, L2 TLB hits and uncached
// references. Each back end charges its cache misses. Every charge is
// additive, so a point's Counters, their sum, equal the single run's
// (TestGroupMatchesPerPoint).

// GroupKey reports whether cfg can run as part of a group and, if so,
// the key of its group: cfg with its cache geometry cleared. Valid
// configurations with equal keys may share one SimulateGroup call.
// Ineligible are multicore and OS-kernel configurations, timeline
// sampling, invariant checking, unified caches and organizations whose
// translation depends on the caches (no TLB, or a walker that is not
// cache-blind).
func GroupKey(cfg Config) (Config, bool) {
	if cfg.Cores > 1 || cfg.needsKernel() || cfg.SampleEvery > 0 || cfg.CheckInvariants || cfg.UnifiedCaches {
		return Config{}, false
	}
	if cfg.Validate() != nil {
		return Config{}, false
	}
	refill, err := buildRefill(cfg, mem.New(cfg.PhysMemBytes))
	if err != nil || refill != nil && !(refill.UsesTLB() && refill.CacheBlind()) {
		return Config{}, false
	}
	key := cfg
	key.L1SizeBytes, key.L1LineBytes, key.L1Assoc = 0, 0, 0
	key.L2SizeBytes, key.L2LineBytes, key.L2Assoc = 0, 0, 0
	return key, true
}

// SimulateGroup simulates every configuration of cfgs over tr in one
// grouped run and returns their results index-aligned with cfgs, each
// equal to the Result SimulateContext returns for its configuration.
// The configurations must share one GroupKey. A cancelled ctx aborts the
// run with an error wrapping simerr.ErrCancelled.
func SimulateGroup(ctx context.Context, cfgs []Config, tr *trace.Trace) ([]*Result, error) {
	g, err := newGroup(cfgs)
	if err != nil {
		return nil, err
	}
	return g.run(ctx, tr)
}

// group is a grouped run: the shared front end and the configurations
// whose back ends replay its log.
type group struct {
	cfgs  []Config
	front *Engine
	log   opLog
	// digests, when non-nil (the tests set it), receives each
	// configuration's machine-state digest at the end of its back end's
	// pass.
	digests []Digest
}

// newGroup builds the front end for cfgs, which must share one GroupKey.
func newGroup(cfgs []Config) (*group, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("sim: empty group: %w", simerr.ErrConfigInvalid)
	}
	key, ok := GroupKey(cfgs[0])
	for _, c := range cfgs {
		if k, kok := GroupKey(c); !ok || !kok || k != key {
			return nil, fmt.Errorf("sim: %s cannot share a group with %s: %w",
				c.Label(), cfgs[0].Label(), simerr.ErrConfigInvalid)
		}
	}
	phys := mem.New(cfgs[0].PhysMemBytes)
	refill, err := buildRefill(cfgs[0], phys)
	if err != nil {
		return nil, err
	}
	g := &group{cfgs: cfgs, front: assembleFront(cfgs[0], phys, refill)}
	g.front.rec = &g.log
	return g, nil
}

// run replays tr through the front end once, then through each chain of
// back ends, and returns the configurations' results.
func (g *group) run(ctx context.Context, tr *trace.Trace) ([]*Result, error) {
	if len(tr.Refs) > math.MaxUint32/2 {
		return nil, fmt.Errorf("sim: %d references exceed a grouped run's %d: %w",
			len(tr.Refs), math.MaxUint32/2, simerr.ErrConfigInvalid)
	}
	// The back-end passes reuse the front end's driver for its
	// segmentation, so they cross the warmup boundary at the same
	// reference; that crossing resets the front end's TLB statistics
	// again, after front has captured them.
	d := &g.front.driver
	if err := d.Begin(tr); err != nil {
		return nil, err
	}
	g.log.ops = g.log.ops[:0]
	if err := d.replay(ctx, tr.Refs, g.front.translate); err != nil {
		return nil, err
	}
	front := g.front.Snapshot()
	tlbs := g.front.tlbDigest()
	chain := mmu.AvgChainLength(g.front.refill)

	results := make([]*Result, len(g.cfgs))
	for _, members := range g.chains() {
		b := newBackEnd(g.cfgs, members)
		d.begin(len(tr.Refs))
		err := d.replay(ctx, tr.Refs, func(refs []trace.Ref) {
			b.phase(refs, d.pos, d.measuring(), g.log.ops)
		})
		if err != nil {
			b.release()
			return nil, err
		}
		for k, i := range members {
			c := front
			c.Add(&b.c[k])
			results[i] = &Result{Config: g.cfgs[i], Workload: tr.Name, Counters: c, AvgChainLength: chain}
			if g.digests != nil {
				g.digests[i] = tlbs
				g.digests[i].setCaches(b.ih[k], b.dh[k])
			}
		}
		b.release()
	}
	return results, nil
}

// chains partitions the configurations into back-end chains: one per L1
// line size over the direct-mapped L1s, in ascending L1 size, and one per
// set-associative L1. Each chain lists configuration indexes.
func (g *group) chains() [][]int {
	var out [][]int
	byLine := map[int]int{} // L1 line size → its chain in out
	for i, c := range g.cfgs {
		if c.L1Assoc > 1 {
			out = append(out, []int{i})
			continue
		}
		k, ok := byLine[c.L1LineBytes]
		if !ok {
			k = len(out)
			byLine[c.L1LineBytes] = k
			out = append(out, nil)
		}
		out[k] = append(out[k], i)
	}
	for _, ch := range out {
		slices.SortStableFunc(ch, func(a, b int) int { return g.cfgs[a].L1SizeBytes - g.cfgs[b].L1SizeBytes })
	}
	return out
}

// translate is a grouped run's front-end phase: runPhase's lone-core
// translation half — ASID switches, TLB probes and the walker — with the
// walker's cache operations logged against the reference that issued
// them instead of performed.
func (e *Engine) translate(refs []trace.Ref) {
	live := e.live
	usesTLB := e.usesTLB
	tagged := e.taggedTLB
	at := uint32(2 * e.pos)
	var data uint64
	for i := range refs {
		r := &refs[i]
		if r.ASID != e.curASID {
			e.switchTo(r.ASID)
			if live {
				e.c.ContextSwitches++
			}
		}
		asidTag := uint64(r.ASID) << 32
		if usesTLB {
			key := addr.VPN(r.PC)
			if tagged {
				key |= asidTag
			}
			if !e.itlb.LookupUncounted(key) {
				e.rec.at = at + uint32(2*i)
				e.itlbMiss(r.ASID, r.PC)
			}
		}
		if r.Kind == trace.None {
			continue
		}
		data++
		if usesTLB {
			key := addr.VPN(r.Data)
			if tagged {
				key |= asidTag
			}
			if !e.dtlb.LookupUncounted(key) {
				e.rec.at = at + uint32(2*i) + 1
				e.dtlbMiss(r.ASID, r.Data)
			}
		}
		if r.Flags&trace.FlagUncached != 0 && live {
			e.c.Charge(stats.L1DMiss, stats.L1MissPenalty)
			e.c.Charge(stats.L2DMiss, stats.L2MissPenalty)
		}
	}
	if live {
		e.c.UserInstrs += uint64(len(refs))
	}
	if usesTLB {
		e.itlb.AddLookups(uint64(len(refs)))
		e.dtlb.AddLookups(data)
	}
}

// cacheOp is one cache operation a front end logged: a run of handler
// instruction fetches or one PTE load.
type cacheOp struct {
	// a is the run's first fetch address, or the PTE address.
	a uint64
	// at is twice the index of the reference whose translation issued
	// the operation, plus one when a D-TLB miss issued it: the back end
	// performs it before (even) or after (odd) the reference's
	// instruction fetch, and always before its data access.
	at uint32
	// n is the run's instruction count; 0 marks a PTE load.
	n uint16
	// l2c and memc are a PTE load's L1-miss and L2-miss components.
	l2c, memc uint8
}

// opLog is a front end's log: the operations so far and the position
// the next ones are logged at.
type opLog struct {
	at  uint32
	ops []cacheOp
}

// fetch logs n handler instruction fetches from pc.
func (l *opLog) fetch(pc uint64, n int) {
	for n > 0 {
		run := min(n, math.MaxUint16)
		l.ops = append(l.ops, cacheOp{a: pc, at: l.at, n: uint16(run)})
		pc += uint64(run) * 4
		n -= run
	}
}

// load logs one PTE load.
func (l *opLog) load(a uint64, l2c, memc stats.Component) {
	l.ops = append(l.ops, cacheOp{a: a, at: l.at, l2c: uint8(l2c), memc: uint8(memc)})
}

// backEnd is one chain of a grouped run: its members' instruction- and
// data-side hierarchies (ih/dh) with their L1 probes (ip/dp), in chain
// order, and the counters each member charges.
type backEnd struct {
	ih, dh []*cache.Hierarchy
	ip, dp []cache.L1Probe
	c      []stats.Counters
	// next is the first log operation not yet performed.
	next int
}

// newBackEnd builds fresh hierarchies for the chain's members.
func newBackEnd(cfgs []Config, members []int) *backEnd {
	b := &backEnd{c: make([]stats.Counters, len(members))}
	for _, i := range members {
		ih, dh := cfgs[i].newHierarchy(), cfgs[i].newHierarchy()
		b.ih, b.dh = append(b.ih, ih), append(b.dh, dh)
		b.ip, b.dp = append(b.ip, ih.L1Probe()), append(b.dp, dh.L1Probe())
	}
	return b
}

// release returns the chain's hierarchies to the pool.
func (b *backEnd) release() {
	for k := range b.ih {
		b.ih[k].Release()
		b.dh[k].Release()
	}
}

// phase replays refs — references base onward, all within one
// warmup/live phase — and the logged operations they issued through the
// chain, charging only when live.
func (b *backEnd) phase(refs []trace.Ref, base int, live bool, ops []cacheOp) {
	at := uint32(2 * base)
	next := b.next
	nextAt := uint32(math.MaxUint32)
	if next < len(ops) {
		nextAt = ops[next].at
	}
	for i := range refs {
		r := &refs[i]
		if nextAt == at {
			next, nextAt = b.perform(ops, next, live)
		}
		a := userCacheAddr(r.ASID, r.PC)
		if !b.ip[0].HitQuiet(a) {
			b.miss(b.ih, b.ip, a, live, stats.L1IMiss, stats.L2IMiss)
		}
		at++
		if nextAt == at {
			next, nextAt = b.perform(ops, next, live)
		}
		at++
		if r.Kind == trace.None || r.Flags&trace.FlagUncached != 0 {
			continue
		}
		a = userCacheAddr(r.ASID, r.Data)
		if !b.dp[0].HitQuiet(a) {
			b.miss(b.dh, b.dp, a, live, stats.L1DMiss, stats.L2DMiss)
		}
	}
	b.next = next
}

// perform carries out the logged operations at ops[next].at, returning
// the next unperformed operation and its position.
func (b *backEnd) perform(ops []cacheOp, next int, live bool) (int, uint32) {
	at := ops[next].at
	for ; next < len(ops) && ops[next].at == at; next++ {
		op := &ops[next]
		if op.n == 0 {
			if !b.dp[0].HitQuiet(op.a) {
				b.miss(b.dh, b.dp, op.a, live, stats.Component(op.l2c), stats.Component(op.memc))
			}
			continue
		}
		for j := uint64(0); j < uint64(op.n); j++ {
			if a := op.a + j*4; !b.ip[0].HitQuiet(a) {
				b.miss(b.ih, b.ip, a, live, stats.HandlerL2, stats.HandlerMem)
			}
		}
	}
	if next < len(ops) {
		return next, ops[next].at
	}
	return next, math.MaxUint32
}

// miss completes an access to a side of the chain whose first L1 probe
// missed: members in order until the next L1 hit, every member before it
// filling its L1 and accessing its L2, charged l1c on the L1 miss and l2c
// on an L2 miss.
func (b *backEnd) miss(hs []*cache.Hierarchy, ps []cache.L1Probe, a uint64, live bool, l1c, l2c stats.Component) {
	for k := range ps {
		if k > 0 && ps[k].HitQuiet(a) {
			return
		}
		lvl := hs[k].AccessMissedL1(a)
		if lvl == cache.L1Hit || !live {
			continue
		}
		b.c[k].Charge(l1c, stats.L1MissPenalty)
		if lvl == cache.Memory {
			b.c[k].Charge(l2c, stats.L2MissPenalty)
		}
	}
}
