// Package sim assembles the simulated machine — split two-level
// virtually-addressed caches, split fully-associative TLBs, an optional
// unified second-level TLB, and one of the paper's page-table walkers —
// and replays reference traces through it, charging cycles in the
// paper's MCPI/VMCPI taxonomy (Tables 2 and 3).
//
// One replay driver serves the single-core Engine and the Multicore
// cluster alike (see driver in replay.go): an Engine is the 1-core case
// of a loop over a slice of cores. Run, RunContext and the streaming
// Feed go through runPhase, whose per-reference work, once caches and
// TLBs are warm, is a handful of compares with zero allocations (pinned
// by TestRunSteadyStateAllocationFree and
// TestMulticoreRunAllocationFree). Begin/Step/Finish is the reference
// implementation: one reference at a time with invariant hooks, used by
// external checkers such as the differential oracle in internal/check;
// TestRunMatchesStep and TestMulticoreRunMatchesStep hold the two loops
// to identical results. SimulateGroup (group.go) runs many cache
// geometries of one cache-blind organization over a trace in one
// translation pass, with results identical to single runs
// (TestGroupMatchesPerPoint). See PERFORMANCE.md at the repository root
// for how to measure any of them.
package sim

import (
	"context"
	"fmt"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/oskernel"
	"repro/internal/simerr"
	"repro/internal/stats"
	"repro/internal/tlb"
	"repro/internal/trace"
)

// Engine executes one simulation configuration over a trace. An Engine
// carries warm state (caches, TLBs, page tables); construct a fresh one
// per measured run.
type Engine struct {
	// driver replays the 1-element slice self; a core inside a Multicore
	// is replayed by the cluster's driver instead.
	driver
	self    [1]*Engine
	phys    *mem.Phys
	refill  mmu.Refill
	usesTLB bool
	// noTLBRefill marks the software-managed-cache organizations, whose
	// walker runs on user L2 misses instead of TLB misses. Precomputed at
	// assembly so Step's default path branches on one bool.
	noTLBRefill bool
	itlb        *tlb.TLB
	dtlb        *tlb.TLB
	// tlb2 is the optional unified second-level TLB — fully associative
	// or set-associative per the configuration; tlb2Cost is the cycles
	// charged when it satisfies a first-level miss.
	tlb2     tlb.Level
	tlb2Cost uint64
	icache   *cache.Hierarchy
	dcache   *cache.Hierarchy
	// iprobe/dprobe are the hand-inlined L1 hit probes for the two cache
	// sides: Step resolves the (overwhelmingly common) L1-hit case with
	// an inline compare and only calls into the cache package on misses.
	// With unified caches both alias the same hierarchy.
	iprobe cache.L1Probe
	dprobe cache.L1Probe
	c      stats.Counters
	// live is false during the warmup prefix: the machine state (caches,
	// TLBs, page tables) evolves but nothing is charged.
	live bool
	// taggedTLB: TLB entries carry ASIDs; otherwise both TLBs are
	// flushed on every context switch (the classical x86 behaviour).
	taggedTLB bool
	curASID   uint8

	// invErr latches the first invariant violation when
	// cfg.CheckInvariants is set.
	invErr error

	// The per-reference tallies runPhase batches and folds into the
	// statistics at phase end (see foldBatch): data references and L1
	// hits on each side.
	batchData, batchIHits, batchDHits uint64

	// OS-kernel state (see oskernel and multicore.go). kern is nil for
	// the paper's machine (first-touch, unbounded) — the hot path then
	// pays one nil compare per TLB-hierarchy miss and nothing else.
	// peers are the cores sharing this kernel (multicore runs);
	// kernErr latches the machine's first kernel failure (memory
	// exhaustion) on core 0, checked per segment and per Step.
	kern          *oskernel.Kernel
	coreID        int
	peers         []*Engine
	shootdownCost uint64
	kernErr       error

	// rec is non-nil only on a grouped run's front end (group.go), which
	// has no caches: ExecHandler and PTELoad record the cache operations
	// they would perform there instead.
	rec *opLog
}

// tlbKey composes the fully-associative TLB lookup key. With tagged TLBs
// the ASID disambiguates same-VPN entries from different address spaces;
// untagged TLBs are flushed on switches, so the bare VPN suffices.
func (e *Engine) tlbKey(asid uint8, vpn uint64) uint64 {
	if e.taggedTLB {
		return uint64(asid)<<32 | vpn
	}
	return vpn
}

// userCacheAddr tags a user virtual address with its address space: the
// virtually-indexed caches keep the same set index (the tag bits sit far
// above any index bit) but distinguish different processes' contents —
// ASID-tagged virtual caches, as the paper's §2 describes. Kernel and
// unmapped addresses are global and pass through untagged.
func userCacheAddr(asid uint8, a uint64) uint64 {
	return uint64(asid)<<36 | a
}

// switchTo performs the context-switch work when the running address
// space changes.
func (e *Engine) switchTo(asid uint8) {
	e.curASID = asid
	if e.usesTLB && !e.taggedTLB {
		e.itlb.Flush()
		e.dtlb.Flush()
		if e.tlb2 != nil {
			e.tlb2.Flush()
		}
	}
}

// Statically assert the engine satisfies the walker-facing interface.
var _ mmu.Machine = (*Engine)(nil)

// NewEngine builds an engine for cfg.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	phys := mem.New(cfg.PhysMemBytes)
	refill, err := buildRefill(cfg, phys)
	if err != nil {
		return nil, err
	}
	e := assemble(cfg, phys, refill)
	if err := e.attachKernel(cfg); err != nil {
		return nil, err
	}
	return e, nil
}

// attachKernel builds and attaches the OS kernel a configuration calls
// for; a first-touch unbounded configuration keeps kern nil, which is
// the paper's machine exactly. The kernel always derives from the base
// configuration seed — in multicore runs it is shared, so NewMulticore
// attaches one kernel to every core itself.
func (e *Engine) attachKernel(cfg Config) error {
	if !cfg.needsKernel() {
		return nil
	}
	kern, err := oskernel.New(cfg.osPolicyName(), cfg.MemFrames, cfg.Seed)
	if err != nil {
		return fmt.Errorf("%w: sim: %w", simerr.ErrConfigInvalid, err)
	}
	e.kern = kern
	e.shootdownCost = cfg.ShootdownCost
	return nil
}

// NewEngineWithRefill builds an engine whose miss handling is the given
// walker instead of the one cfg.VM names (cfg.VM is still validated and
// used for labels). It exists for the correctness oracles in
// internal/check — e.g. proving that any organization run with zero-cost
// handlers and an always-hitting TLB is indistinguishable from BASE.
func NewEngineWithRefill(cfg Config, refill mmu.Refill) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := assemble(cfg, mem.New(cfg.PhysMemBytes), refill)
	if err := e.attachKernel(cfg); err != nil {
		return nil, err
	}
	return e, nil
}

// assemble wires caches, TLBs, and the walker into an Engine.
func assemble(cfg Config, phys *mem.Phys, refill mmu.Refill) *Engine {
	e := assembleFront(cfg, phys, refill)
	e.icache = cfg.newHierarchy()
	if cfg.UnifiedCaches {
		// One shared hierarchy: instruction fetches and data references
		// contend for the same lines.
		e.dcache = e.icache
	} else {
		e.dcache = cfg.newHierarchy()
	}
	e.iprobe = e.icache.L1Probe()
	e.dprobe = e.dcache.L1Probe()
	return e
}

// newHierarchy builds one side's cache hierarchy.
func (c Config) newHierarchy() *cache.Hierarchy {
	return cache.NewHierarchy(
		cache.Config{SizeBytes: c.L1SizeBytes, LineBytes: c.L1LineBytes, Assoc: c.L1Assoc},
		cache.Config{SizeBytes: c.L2SizeBytes, LineBytes: c.L2LineBytes, Assoc: c.L2Assoc})
}

// releaseCaches hands the engine's cache arrays back to the pool they
// came from once its run is over; the engine must not run again.
func (e *Engine) releaseCaches() {
	e.icache.Release()
	if e.dcache != e.icache {
		e.dcache.Release()
	}
	e.icache, e.dcache = nil, nil
	e.iprobe, e.dprobe = cache.L1Probe{}, cache.L1Probe{}
}

// assembleFront wires the TLBs and the walker into an Engine without
// caches: the whole of a grouped run's front end, and the part of
// assemble that does not depend on cache geometry.
func assembleFront(cfg Config, phys *mem.Phys, refill mmu.Refill) *Engine {
	e := &Engine{
		driver: driver{cfg: cfg},
		phys:   phys,
		refill: refill,
	}
	e.self[0] = e
	e.cores = e.self[:]
	e.noTLBRefill = refill != nil && !refill.UsesTLB()
	if refill != nil && refill.UsesTLB() {
		e.usesTLB = true
		switch cfg.ASIDs {
		case ASIDTagged:
			e.taggedTLB = true
		case ASIDFlush:
			e.taggedTLB = false
		default:
			e.taggedTLB = refill.ASIDsInTLB()
		}
		tcfg := tlb.Config{
			Entries:        cfg.TLBEntries,
			ProtectedSlots: resolveProtectedSlots(refill, cfg),
			Policy:         cfg.TLBPolicy,
		}
		tcfg.Seed = cfg.Seed ^ 0x1711
		e.itlb = tlb.New(tcfg)
		tcfg.Seed = cfg.Seed ^ 0x2722
		e.dtlb = tlb.New(tcfg)
		if cfg.TLB2Entries > 0 {
			if cfg.TLB2Assoc > 0 {
				e.tlb2 = tlb.NewSetAssoc(tlb.SetAssocConfig{
					Entries: cfg.TLB2Entries,
					Ways:    cfg.TLB2Assoc,
					Policy:  cfg.TLBPolicy,
					Seed:    cfg.Seed ^ 0x3733,
				})
			} else {
				e.tlb2 = tlb.New(tlb.Config{
					Entries: cfg.TLB2Entries,
					Policy:  cfg.TLBPolicy,
					Seed:    cfg.Seed ^ 0x3733,
				})
			}
			e.tlb2Cost = uint64(cfg.TLB2Latency)
			if e.tlb2Cost == 0 {
				e.tlb2Cost = 2
			}
		}
	}
	return e
}

// dtlbHit resolves a data translation through the TLB hierarchy:
// first-level hit, then (if configured) the unified second-level TLB.
// It reports whether the walker must run. Step inlines the first-level
// probe itself and goes straight to the miss path; this full form serves
// the walker-facing DTLBLookup.
func (e *Engine) dtlbHit(key uint64) bool {
	if e.dtlb.Lookup(key) {
		return true
	}
	if e.tlb2 != nil && e.tlb2.Lookup(key) {
		if e.live {
			e.c.Charge(stats.TLB2Hit, e.tlb2Cost)
		}
		e.dtlb.Insert(key)
		return true
	}
	return false
}

// itlbMiss services a first-level I-TLB miss: probe the optional unified
// second-level TLB, and run the walker if that misses too — demanding
// the page from the OS kernel first, since a full TLB-hierarchy miss is
// the point where a real OS would discover a non-resident page. The
// first-level probe (with its statistics) already happened in Step.
func (e *Engine) itlbMiss(asid uint8, va uint64) {
	if e.tlb2 != nil {
		key := e.tlbKey(asid, addr.VPN(va))
		if e.tlb2.Lookup(key) {
			if e.live {
				e.c.Charge(stats.TLB2Hit, e.tlb2Cost)
			}
			e.itlb.Insert(key)
			return
		}
	}
	if e.kern != nil {
		e.kernelTouch(asid, va)
	}
	e.refill.HandleMiss(e, asid, va, true)
}

// dtlbMiss is itlbMiss for the data side.
func (e *Engine) dtlbMiss(asid uint8, va uint64) {
	if e.tlb2 != nil {
		key := e.tlbKey(asid, addr.VPN(va))
		if e.tlb2.Lookup(key) {
			if e.live {
				e.c.Charge(stats.TLB2Hit, e.tlb2Cost)
			}
			e.dtlb.Insert(key)
			return
		}
	}
	if e.kern != nil {
		e.kernelTouch(asid, va)
	}
	e.refill.HandleMiss(e, asid, va, false)
}

// kernelTouch demands (asid, page-of-va) from the OS kernel: charges a
// page fault when the page was not resident, and — when admitting it
// evicted a victim — performs the victim's TLB shootdown. The kernel is
// the whole machine's, so its first failure (memory exhaustion) latches
// on core 0, where the driver checks; replay aborts at its next check.
func (e *Engine) kernelTouch(asid uint8, va uint64) {
	ev, have, fault, err := e.kern.Touch(asid, addr.VPN(va))
	if err != nil {
		head := e
		if e.peers != nil {
			head = e.peers[0]
		}
		if head.kernErr == nil {
			head.kernErr = fmt.Errorf("sim: core %d: %w", e.coreID, err)
		}
		return
	}
	if fault && e.live {
		e.c.Charge(stats.PageFault, stats.PageFaultPenalty)
	}
	if have {
		e.shootdown(ev)
	}
}

// shootdown propagates a page eviction to the TLBs: the victim's
// translation is invalidated on this core (part of the fault the kernel
// already charged) and on every peer core, each remote invalidation
// costing the configured IPI + flush cycles, charged to the initiating
// core. Untagged TLBs evict by bare VPN — they only ever hold the
// running process's entries, so this can over-invalidate a same-VPN
// entry of another address space, which costs a spurious refill but
// never lets a stale translation survive.
func (e *Engine) shootdown(p oskernel.Page) {
	if e.usesTLB {
		key := e.tlbKey(p.ASID, p.VPN)
		e.itlb.Evict(key)
		e.dtlb.Evict(key)
		if e.tlb2 != nil {
			e.tlb2.Evict(key)
		}
	}
	for _, peer := range e.peers {
		if peer == e {
			continue
		}
		if peer.usesTLB {
			key := peer.tlbKey(p.ASID, p.VPN)
			peer.itlb.Evict(key)
			peer.dtlb.Evict(key)
			if peer.tlb2 != nil {
				peer.tlb2.Evict(key)
			}
		}
		if e.live {
			e.c.Charge(stats.Shootdown, e.shootdownCost)
		}
	}
}

// exec replays one reference on this core: Step's body, the readable
// reference implementation of the paper's §3.1 pseudocode.
func (e *Engine) exec(r *trace.Ref) {
	if r.ASID != e.curASID {
		e.switchTo(r.ASID)
		if e.live {
			e.c.ContextSwitches++
		}
	}
	if e.live {
		e.c.UserInstrs++
	}

	// Instruction side. The first-level TLB probe and the L1 hit probe
	// are written so their hit paths inline here; only misses leave the
	// loop body.
	if e.usesTLB && !e.itlb.Lookup(e.tlbKey(r.ASID, addr.VPN(r.PC))) {
		e.itlbMiss(r.ASID, r.PC)
	}
	if !e.iprobe.Hit(userCacheAddr(r.ASID, r.PC)) {
		e.l1Miss(e.icache, r.ASID, r.PC, true)
	}

	// Data side.
	if r.Kind == trace.None {
		return
	}
	if e.usesTLB && !e.dtlb.Lookup(e.tlbKey(r.ASID, addr.VPN(r.Data))) {
		e.dtlbMiss(r.ASID, r.Data)
	}
	if r.Flags&trace.FlagUncached != 0 {
		// Software-controlled cacheability (§5): the reference goes
		// straight to memory — full miss latency, but no line is
		// allocated, so it cannot displace cached data. It also
		// cannot trigger the software cache-fill handler: the OS
		// marked it uncacheable precisely to skip the fill.
		if e.live {
			e.c.Charge(stats.L1DMiss, stats.L1MissPenalty)
			e.c.Charge(stats.L2DMiss, stats.L2MissPenalty)
		}
		return
	}
	if !e.dprobe.Hit(userCacheAddr(r.ASID, r.Data)) {
		e.l1Miss(e.dcache, r.ASID, r.Data, false)
	}
}

// l1Miss completes a reference whose L1 probe missed: the L1 fill and
// the L2 access with their charges and — for the software-managed-cache
// organizations, on a user L2 miss — the cache-fill handler.
func (e *Engine) l1Miss(h *cache.Hierarchy, asid uint8, va uint64, fetch bool) {
	lvl := h.AccessMissedL1(userCacheAddr(asid, va))
	if lvl != cache.L1Hit && e.live {
		l1c, l2c := stats.L1DMiss, stats.L2DMiss
		if fetch {
			l1c, l2c = stats.L1IMiss, stats.L2IMiss
		}
		e.c.Charge(l1c, stats.L1MissPenalty)
		if lvl == cache.Memory {
			e.c.Charge(l2c, stats.L2MissPenalty)
		}
	}
	if lvl == cache.Memory && e.noTLBRefill {
		if e.kern != nil {
			e.kernelTouch(asid, va)
		}
		e.refill.HandleMiss(e, asid, va, fetch)
	}
}

// Digest is a compact summary of the engine's mutable machine state —
// cache and TLB occupancy — used by the differential oracle in
// internal/check to compare engines mid-run. Computing it scans every
// cache line, so checkers sample it at intervals rather than per step.
type Digest struct {
	// Resident line counts per cache level (instruction / data side).
	IL1, IL2, DL1, DL2 int
	// Resident TLB entries, total and in the protected partition.
	ITLB, ITLBProt int
	DTLB, DTLBProt int
	TLB2           int
}

// Digest summarizes the current machine state.
func (e *Engine) Digest() Digest {
	d := e.tlbDigest()
	d.setCaches(e.icache, e.dcache)
	return d
}

// setCaches fills in the cache occupancies.
func (d *Digest) setCaches(icache, dcache *cache.Hierarchy) {
	d.IL1, d.IL2 = icache.L1().Resident(), icache.L2().Resident()
	d.DL1, d.DL2 = dcache.L1().Resident(), dcache.L2().Resident()
}

// tlbDigest is the TLB half of Digest.
func (e *Engine) tlbDigest() Digest {
	var d Digest
	if e.usesTLB {
		d.ITLB, d.ITLBProt = e.itlb.Resident(), e.itlb.ResidentProtected()
		d.DTLB, d.DTLBProt = e.dtlb.Resident(), e.dtlb.ResidentProtected()
		if e.tlb2 != nil {
			d.TLB2 = e.tlb2.Resident()
		}
	}
	return d
}

// Snapshot returns the statistics accumulated so far, with the live TLB
// lookup/miss counts folded in the way Finish folds them — so a snapshot
// taken after the final Step equals the finished Result's counters.
func (e *Engine) Snapshot() stats.Counters {
	c := e.c
	if e.usesTLB {
		ist, dst := e.itlb.Stats(), e.dtlb.Stats()
		c.ITLBLookups, c.ITLBMisses = ist.Lookups, ist.Misses
		c.DTLBLookups, c.DTLBMisses = dst.Lookups, dst.Misses
	}
	return c
}

// --- mmu.Machine implementation -------------------------------------

// ExecHandler charges the handler's base cost and, for software handlers,
// streams its instruction fetches through the I-caches.
func (e *Engine) ExecHandler(comp stats.Component, pc uint64, n int, fetchesCode bool) {
	if e.live {
		e.c.Charge(comp, uint64(n))
	}
	if !fetchesCode {
		return
	}
	if e.rec != nil {
		e.rec.fetch(pc, n)
		return
	}
	for i := 0; i < n; i++ {
		lvl := e.icache.Access(pc + uint64(i)*4)
		if lvl != cache.L1Hit && e.live {
			e.c.Charge(stats.HandlerL2, stats.L1MissPenalty)
			if lvl == cache.Memory {
				e.c.Charge(stats.HandlerMem, stats.L2MissPenalty)
			}
		}
	}
}

// PTELoad runs a page-table-entry reference through the D-caches.
// A grouped run's front end records the load and answers L1Hit: its
// walker is cache-blind, so the answer changes nothing.
func (e *Engine) PTELoad(a uint64, l2c, memc stats.Component) cache.Level {
	if e.rec != nil {
		e.rec.load(a, l2c, memc)
		return cache.L1Hit
	}
	lvl := e.dcache.Access(a)
	if lvl != cache.L1Hit && e.live {
		e.c.Charge(l2c, stats.L1MissPenalty)
		if lvl == cache.Memory {
			e.c.Charge(memc, stats.L2MissPenalty)
		}
	}
	return lvl
}

// DTLBLookup probes the D-TLB on behalf of a handler's PTE reference.
func (e *Engine) DTLBLookup(asid uint8, vpn uint64) bool {
	return e.dtlbHit(e.tlbKey(asid, vpn))
}

// DTLBInsert installs a user translation in the D-TLB.
func (e *Engine) DTLBInsert(asid uint8, vpn uint64) {
	key := e.tlbKey(asid, vpn)
	e.dtlb.Insert(key)
	if e.tlb2 != nil {
		e.tlb2.Insert(key)
	}
}

// DTLBInsertProtected installs a root/kernel translation in the D-TLB's
// protected partition.
func (e *Engine) DTLBInsertProtected(asid uint8, vpn uint64) {
	e.dtlb.InsertProtected(e.tlbKey(asid, vpn))
}

// ITLBInsert installs a user translation in the I-TLB.
func (e *Engine) ITLBInsert(asid uint8, vpn uint64) {
	key := e.tlbKey(asid, vpn)
	e.itlb.Insert(key)
	if e.tlb2 != nil {
		e.tlb2.Insert(key)
	}
}

// Interrupt counts a precise interrupt taken by the VM system.
func (e *Engine) Interrupt() {
	if e.live {
		e.c.Interrupts++
	}
}

// Simulate is the one-call convenience: build the machine cfg calls for
// — the multicore cluster when Cores > 1, the single-core engine
// otherwise — and run it over tr.
func Simulate(cfg Config, tr *trace.Trace) (*Result, error) {
	return SimulateContext(context.Background(), cfg, tr)
}

// SimulateContext is Simulate with cooperative cancellation: the run
// aborts with an error wrapping simerr.ErrCancelled shortly after ctx
// is done. The sweep pool uses this to impose per-point deadlines.
func SimulateContext(ctx context.Context, cfg Config, tr *trace.Trace) (*Result, error) {
	if cfg.Cores > 1 {
		m, err := NewMulticore(cfg)
		if err != nil {
			return nil, err
		}
		return m.RunContext(ctx, tr)
	}
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	res, err := e.RunContext(ctx, tr)
	e.releaseCaches()
	return res, err
}
