package sim

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/oskernel"
	"repro/internal/simerr"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Multicore replays one trace over N cores. Each core is a full Engine —
// private TLBs and private split cache hierarchy, seeded per core (see
// CoreSeed) — while all cores share one physical memory, one page table
// (and thus one walker), and one OS kernel. The interleaving is the
// deterministic round-robin the trace itself defines: reference i
// executes on core i mod N, so the trace order is the global execution
// order and a run is exactly reproducible from (config, trace).
//
// The cores advance in lockstep through the shared structures: because
// one reference completes — walker, kernel fault, shootdowns and all —
// before the next begins, the shared page table and kernel see a single
// serialized access stream. That is the modeling choice, not an
// implementation accident: the paper's cost taxonomy charges cycles per
// event, and a serialized interleaving makes every event's charge
// attributable to exactly one core without modeling coherence traffic
// the paper never measured.
//
// The cluster and the single-core Engine share one replay driver (see
// driver), so Run, RunContext, Begin/Step/Finish and the streaming
// calls behave identically on both. A 1-core Multicore is bit-identical
// to the single-core Engine: core 0 keeps the base seed and the kernel
// attachment rule is the same (TestMulticoreOneCoreMatchesEngine pins
// this).
type Multicore struct {
	driver
	kern *oskernel.Kernel
}

// NewMulticore builds an N-core machine for cfg (cfg.Cores >= 1; 0 is
// promoted to 1). Every core shares the physical memory, the walker and
// its page table, and — when the configuration calls for one — the OS
// kernel, which derives from the base seed so policy decisions are a
// property of the machine, not of any core.
func NewMulticore(cfg Config) (*Multicore, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Cores
	if n == 0 {
		n = 1
	}
	phys := mem.New(cfg.PhysMemBytes)
	refill, err := buildRefill(cfg, phys)
	if err != nil {
		return nil, err
	}
	m := &Multicore{driver: driver{cfg: cfg, cores: make([]*Engine, n), perCore: true}}
	for c := 0; c < n; c++ {
		coreCfg := cfg
		coreCfg.Seed = CoreSeed(cfg.Seed, c)
		e := assemble(coreCfg, phys, refill)
		e.coreID = c
		m.cores[c] = e
	}
	if cfg.needsKernel() {
		kern, kerr := oskernel.New(cfg.osPolicyName(), cfg.MemFrames, cfg.Seed)
		if kerr != nil {
			return nil, fmt.Errorf("%w: sim: %w", simerr.ErrConfigInvalid, kerr)
		}
		m.kern = kern
		for _, e := range m.cores {
			e.kern = kern
			e.peers = m.cores
			e.shootdownCost = cfg.ShootdownCost
		}
	}
	return m, nil
}

// Cores returns the number of simulated cores.
func (m *Multicore) Cores() int { return len(m.cores) }

// Snapshot returns the cluster counters: the sum over every core's own
// snapshot.
func (m *Multicore) Snapshot() stats.Counters { return m.snapshot() }

// CoreSnapshot returns core c's own counters.
func (m *Multicore) CoreSnapshot(c int) stats.Counters {
	return m.cores[c].Snapshot()
}

// Digest summarizes the whole machine's mutable state: the field-wise
// sum of every core's digest. Checkers comparing two multicore runs
// compare these (and can drill into per-core digests on divergence).
func (m *Multicore) Digest() Digest {
	var sum Digest
	for _, e := range m.cores {
		d := e.Digest()
		sum.IL1 += d.IL1
		sum.IL2 += d.IL2
		sum.DL1 += d.DL1
		sum.DL2 += d.DL2
		sum.ITLB += d.ITLB
		sum.ITLBProt += d.ITLBProt
		sum.DTLB += d.DTLB
		sum.DTLBProt += d.DTLBProt
		sum.TLB2 += d.TLB2
	}
	return sum
}

// CoreDigest returns core c's own machine-state digest.
func (m *Multicore) CoreDigest(c int) Digest { return m.cores[c].Digest() }

// --- dispatch --------------------------------------------------------

// Streamer is the incremental-replay surface shared by the single-core
// Engine and the Multicore cluster: open a stream, feed reference
// chunks, close it for the Result, and digest the machine state at any
// point. NewStreamer picks the implementation a configuration calls for,
// which is how the serving layer runs multicore points without caring
// about core counts.
type Streamer interface {
	BeginStream(name string, total int) error
	Feed(refs []trace.Ref) ([]TimelineSample, error)
	EndStream() (*Result, error)
	Digest() Digest
}

// Statically assert both replay engines satisfy the streaming surface.
var (
	_ Streamer = (*Engine)(nil)
	_ Streamer = (*Multicore)(nil)
)

// NewStreamer builds the streaming replay engine cfg calls for: the
// Multicore cluster when Cores > 1, the single-core Engine otherwise
// (bit-identical to every existing single-core stream).
func NewStreamer(cfg Config) (Streamer, error) {
	if cfg.Cores > 1 {
		return NewMulticore(cfg)
	}
	return NewEngine(cfg)
}
