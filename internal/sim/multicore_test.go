package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/simerr"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// mcTrace builds a cached multicore workload trace.
func mcTrace(t testing.TB, cores, n int) *trace.Trace {
	t.Helper()
	tr, err := workload.Multicore([]string{"gcc", "ijpeg"}, 7, cores, n, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestMulticoreOneCoreMatchesEngine pins the central equivalence: a
// 1-core Multicore run is bit-identical to the single-core Engine —
// counters, timeline, and machine-state digest — for every paper
// organization, with warmup and sampling in play.
func TestMulticoreOneCoreMatchesEngine(t *testing.T) {
	tr := mcTrace(t, 1, 30_000)
	for _, vm := range AllVMs() {
		cfg := Default(vm)
		cfg.WarmupInstrs = 5_000
		cfg.SampleEvery = 7_000
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eng.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		mcfg := cfg
		mcfg.Cores = 1
		mc, err := NewMulticore(mcfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := mc.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		if got.Counters != want.Counters {
			t.Errorf("%s: 1-core multicore counters diverge from engine:\n got %+v\nwant %+v",
				vm, got.Counters, want.Counters)
		}
		if len(got.Timeline) != len(want.Timeline) {
			t.Fatalf("%s: timeline length %d vs %d", vm, len(got.Timeline), len(want.Timeline))
		}
		for i := range got.Timeline {
			if got.Timeline[i] != want.Timeline[i] {
				t.Errorf("%s: timeline sample %d diverges", vm, i)
			}
		}
		if mc.Digest() != eng.Digest() {
			t.Errorf("%s: 1-core multicore digest diverges from engine", vm)
		}
		if got.AvgChainLength != want.AvgChainLength {
			t.Errorf("%s: chain length %v vs %v", vm, got.AvgChainLength, want.AvgChainLength)
		}
	}
}

// TestMulticoreDeterministic pins run-to-run reproducibility for a
// multicore machine with an evicting policy and shootdowns in play.
func TestMulticoreDeterministic(t *testing.T) {
	tr := mcTrace(t, 4, 40_000)
	cfg := Default(VMUltrix)
	cfg.Cores = 4
	cfg.OSPolicy = "lru"
	cfg.MemFrames = 64
	cfg.ShootdownCost = 100
	cfg.WarmupInstrs = 0
	run := func() *Result {
		m, err := NewMulticore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Counters != b.Counters {
		t.Fatal("multicore runs diverged")
	}
	for i := range a.PerCore {
		if a.PerCore[i] != b.PerCore[i] {
			t.Fatalf("core %d counters diverged across runs", i)
		}
	}
}

// TestMulticorePerCoreSumsToTotal pins the Result contract: Counters is
// exactly the sum of PerCore.
func TestMulticorePerCoreSumsToTotal(t *testing.T) {
	tr := mcTrace(t, 2, 30_000)
	cfg := Default(VMMach)
	cfg.Cores = 2
	cfg.OSPolicy = "clock"
	cfg.MemFrames = 128
	cfg.ShootdownCost = 50
	cfg.WarmupInstrs = 4_000
	res, err := Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCore) != 2 {
		t.Fatalf("PerCore has %d entries, want 2", len(res.PerCore))
	}
	var sum stats.Counters
	for i := range res.PerCore {
		sum.Add(&res.PerCore[i])
	}
	if sum != res.Counters {
		t.Fatalf("per-core sum diverges from total:\n got %+v\nwant %+v", sum, res.Counters)
	}
}

// TestMulticoreShootdownsCharged exercises the shootdown protocol: under
// a tight frame budget with multiple cores, evictions must invalidate
// remote translations and charge the configured cost per remote core.
func TestMulticoreShootdownsCharged(t *testing.T) {
	tr := mcTrace(t, 4, 40_000)
	cfg := Default(VMUltrix)
	cfg.Cores = 4
	cfg.OSPolicy = "lru"
	cfg.MemFrames = 32
	cfg.ShootdownCost = 100
	cfg.WarmupInstrs = 0
	res, err := Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	sd := res.Counters.Events[stats.Shootdown]
	if sd == 0 {
		t.Fatal("tight frame budget on 4 cores produced no shootdowns")
	}
	if got, want := res.Counters.Cycles[stats.Shootdown], sd*cfg.ShootdownCost; got != want {
		t.Fatalf("shootdown cycles %d, want events %d x cost %d = %d", got, sd, cfg.ShootdownCost, want)
	}
	// Each eviction invalidates on every remote core: with 4 cores the
	// shootdown count is (cores-1) per eviction.
	pf := res.Counters.Events[stats.PageFault]
	if pf == 0 {
		t.Fatal("evicting policy charged no page faults")
	}
	if got, want := res.Counters.Cycles[stats.PageFault], pf*stats.PageFaultPenalty; got != want {
		t.Fatalf("page-fault cycles %d, want %d", got, want)
	}
}

// TestMulticoreShootdownCountMatchesEvictions pins the exact shootdown
// arithmetic: every eviction after warmup fires cores-1 remote
// invalidations, so the cluster shootdown count is (cores-1) x the
// post-warmup eviction count. With zero warmup that is all evictions.
func TestMulticoreShootdownCountMatchesEvictions(t *testing.T) {
	tr := mcTrace(t, 2, 30_000)
	for _, cores := range []int{2, 4} {
		cfg := Default(VMUltrix)
		cfg.Cores = cores
		cfg.OSPolicy = "round-robin"
		cfg.MemFrames = 48
		cfg.ShootdownCost = 10
		cfg.WarmupInstrs = 0
		trc := mcTrace(t, cores, 30_000)
		_ = tr
		m, err := NewMulticore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(trc)
		if err != nil {
			t.Fatal(err)
		}
		evicts := m.kern.Evictions()
		if evicts == 0 {
			t.Fatalf("cores=%d: no evictions under a tight budget", cores)
		}
		want := evicts * uint64(cores-1)
		if got := res.Counters.Events[stats.Shootdown]; got != want {
			t.Fatalf("cores=%d: %d shootdowns, want evictions %d x (cores-1) = %d",
				cores, got, evicts, want)
		}
	}
}

// TestMulticoreFirstTouchExhaustion: first-touch never evicts, so a
// bounded frame budget must fail the run with a "mem"-class error once
// the working set exceeds it.
func TestMulticoreFirstTouchExhaustion(t *testing.T) {
	tr := mcTrace(t, 2, 30_000)
	cfg := Default(VMUltrix)
	cfg.Cores = 2
	cfg.OSPolicy = "first-touch"
	cfg.MemFrames = 4
	cfg.WarmupInstrs = 0
	_, err := Simulate(cfg, tr)
	if err == nil {
		t.Fatal("first-touch with 4 frames completed a 30k-ref run")
	}
	if !errors.Is(err, simerr.ErrMemExhausted) {
		t.Fatalf("error %v does not wrap ErrMemExhausted", err)
	}
	if got := simerr.Category(err); got != "mem" {
		t.Fatalf("category %q, want mem", got)
	}
}

// TestEngineKernelPoliciesRun exercises every OS policy on the
// single-core engine (kernel attached by NewEngine) end to end.
func TestEngineKernelPoliciesRun(t *testing.T) {
	tr := mcTrace(t, 1, 20_000)
	for _, pol := range []string{"round-robin", "random", "lru", "clock"} {
		cfg := Default(VMUltrix)
		cfg.OSPolicy = pol
		cfg.MemFrames = 64
		cfg.WarmupInstrs = 0
		res, err := Simulate(cfg, tr)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if res.Counters.Events[stats.PageFault] == 0 {
			t.Fatalf("%s: no page faults charged", pol)
		}
		// Single core: evictions invalidate locally but have no peers,
		// so no shootdown events.
		if res.Counters.Events[stats.Shootdown] != 0 {
			t.Fatalf("%s: single-core run charged shootdowns", pol)
		}
	}
}

// TestMulticoreStreamMatchesBatch pins chunk-invisibility for the
// multicore streaming surface: a run fed in chunks is bit-identical to
// the batch run over the concatenated trace.
func TestMulticoreStreamMatchesBatch(t *testing.T) {
	tr := mcTrace(t, 2, 30_000)
	cfg := Default(VMUltrix)
	cfg.Cores = 2
	cfg.OSPolicy = "lru"
	cfg.MemFrames = 96
	cfg.ShootdownCost = 40
	cfg.WarmupInstrs = 5_000
	cfg.SampleEvery = 6_000

	batchM, err := NewMulticore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := batchM.Run(tr)
	if err != nil {
		t.Fatal(err)
	}

	streamM, err := NewMulticore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := streamM.BeginStream(tr.Name, tr.Len()); err != nil {
		t.Fatal(err)
	}
	var streamed []TimelineSample
	for i := 0; i < tr.Len(); {
		n := 1 + (i*2281)%4_097 // deterministic ragged chunking
		if i >= 9_000 && i < 12_500 {
			// 1-reference chunks across a sampling boundary and several
			// core rotations: every reference is its own segment.
			n = 1
		}
		if i+n > tr.Len() {
			n = tr.Len() - i
		}
		s, err := streamM.Feed(tr.Refs[i : i+n])
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, s...)
		i += n
	}
	got, err := streamM.EndStream()
	if err != nil {
		t.Fatal(err)
	}
	if got.Counters != want.Counters {
		t.Fatalf("streamed multicore counters diverge:\n got %+v\nwant %+v", got.Counters, want.Counters)
	}
	for i := range got.PerCore {
		if got.PerCore[i] != want.PerCore[i] {
			t.Fatalf("core %d streamed counters diverge", i)
		}
	}
	if len(got.Timeline) != len(want.Timeline) {
		t.Fatalf("result timeline has %d samples, want %d", len(got.Timeline), len(want.Timeline))
	}
	for i := range got.Timeline {
		if got.Timeline[i] != want.Timeline[i] {
			t.Fatalf("timeline sample %d diverges", i)
		}
	}
	// Live rows are the result's timeline in order; only the trailing
	// partial interval (if any) is EndStream's to add.
	wantLive := want.Timeline
	if len(streamed) < len(wantLive) {
		wantLive = wantLive[:len(streamed)]
	}
	for i := range wantLive {
		if streamed[i] != wantLive[i] {
			t.Fatalf("live sample %d diverges", i)
		}
	}
	if batchM.Digest() != streamM.Digest() {
		t.Fatal("streamed multicore digest diverges from batch")
	}
}

// TestNewStreamerDispatch pins the Streamer factory's core-count
// dispatch.
func TestNewStreamerDispatch(t *testing.T) {
	cfg := Default(VMUltrix)
	s, err := NewStreamer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*Engine); !ok {
		t.Fatalf("cores<=1 streamer is %T, want *Engine", s)
	}
	cfg.Cores = 2
	s, err = NewStreamer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*Multicore); !ok {
		t.Fatalf("cores=2 streamer is %T, want *Multicore", s)
	}
}

// TestMulticoreInvariantsHold runs a shootdown-heavy multicore
// configuration with per-reference invariant checking enabled: every
// conservation law must hold on every core at every reference.
func TestMulticoreInvariantsHold(t *testing.T) {
	tr := mcTrace(t, 4, 20_000)
	cfg := Default(VMMach)
	cfg.Cores = 4
	cfg.OSPolicy = "clock"
	cfg.MemFrames = 48
	cfg.ShootdownCost = 75
	cfg.WarmupInstrs = 2_000
	cfg.CheckInvariants = true
	if _, err := Simulate(cfg, tr); err != nil {
		t.Fatal(err)
	}
}

// TestConfigRejectsBadMulticoreKnobs pins validation of the new fields.
func TestConfigRejectsBadMulticoreKnobs(t *testing.T) {
	cfg := Default(VMUltrix)
	cfg.Cores = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative cores accepted")
	}
	cfg = Default(VMUltrix)
	cfg.Cores = MaxCores + 1
	if err := cfg.Validate(); err == nil {
		t.Fatal("over-limit cores accepted")
	}
	cfg = Default(VMUltrix)
	cfg.MemFrames = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative frame budget accepted")
	}
	cfg = Default(VMUltrix)
	cfg.OSPolicy = "nonesuch"
	err := cfg.Validate()
	if err == nil {
		t.Fatal("unknown OS policy accepted")
	}
	if !errors.Is(err, simerr.ErrConfigInvalid) {
		t.Fatalf("policy error %v does not wrap ErrConfigInvalid", err)
	}
}

// BenchmarkMulticoreRun times the cluster's batch replay: a fresh
// machine under a tight frame budget (so the kernel evicts and shoots
// down translations) replays a 4-program mix at 1, 2 and 4 cores under
// each evicting policy. ns/ref is the wall time per trace reference,
// every core's share included.
func BenchmarkMulticoreRun(b *testing.B) {
	const refs = 200_000
	for _, cores := range []int{1, 2, 4} {
		tr, err := workload.Multicore([]string{"gcc", "vortex", "ijpeg", "compress"}, 1, cores, refs, 50_000)
		if err != nil {
			b.Fatal(err)
		}
		for _, pol := range []string{"lru", "clock", "random"} {
			b.Run(fmt.Sprintf("cores=%d/%s", cores, pol), func(b *testing.B) {
				cfg := Default(VMUltrix)
				cfg.Cores = cores
				cfg.OSPolicy = pol
				cfg.MemFrames = 256
				cfg.WarmupInstrs = refs / 10
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					m, err := NewMulticore(cfg)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if _, err := m.Run(tr); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*refs), "ns/ref")
			})
		}
	}
}

// mcStepRun replays tr through the cluster's Begin/Step/Finish reference
// loop. On a Step error it returns the machine and the error.
func mcStepRun(cfg Config, tr *trace.Trace) (*Multicore, *Result, error) {
	m, err := NewMulticore(cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := m.Begin(tr); err != nil {
		return nil, nil, err
	}
	for i := range tr.Refs {
		if err := m.Step(&tr.Refs[i]); err != nil {
			return m, nil, err
		}
	}
	return m, m.Finish(tr.Name), nil
}

// TestMulticoreRunMatchesStep holds the cluster's batched phase loop to
// the Step-per-reference loop across core counts, every OS policy, and
// TLB, hashed-table, no-TLB and two-level-TLB organizations. A 96-frame
// budget makes evictions and shootdowns constant (and exhausts
// first-touch, whose failure must land on the same reference), and the
// warmup boundary sits mid-trace off any core or interval boundary. With
// and without sampling, Run must reproduce the Step loop's counters,
// every core's counters and machine state, and the timeline bit for bit.
func TestMulticoreRunMatchesStep(t *testing.T) {
	for _, cores := range []int{1, 2, 4} {
		tr := mcTrace(t, cores, 24_000)
		for _, pol := range []string{"first-touch", "round-robin", "random", "lru", "clock"} {
			for _, vm := range []string{VMUltrix, VMIntel, VMPARISC, VMNoTLB, VML2TLB} {
				for _, every := range []int{0, 3_001} {
					name := fmt.Sprintf("cores=%d/%s/%s/sample=%d", cores, pol, vm, every)
					t.Run(name, func(t *testing.T) {
						cfg := Default(vm)
						cfg.Cores = cores
						cfg.OSPolicy = pol
						cfg.MemFrames = 96
						cfg.ShootdownCost = 40
						cfg.WarmupInstrs = 7_001
						cfg.SampleEvery = every
						stepM, want, stepErr := mcStepRun(cfg, tr)
						m, err := NewMulticore(cfg)
						if err != nil {
							t.Fatal(err)
						}
						got, runErr := m.Run(tr)
						if stepErr != nil || runErr != nil {
							if stepErr == nil || runErr == nil || stepErr.Error() != runErr.Error() {
								t.Fatalf("errors diverge:\nrun:  %v\nstep: %v", runErr, stepErr)
							}
							if !errors.Is(runErr, simerr.ErrMemExhausted) {
								t.Fatalf("unexpected failure %v", runErr)
							}
							return
						}
						if got.Counters != want.Counters {
							t.Fatalf("Run counters diverge from Step loop:\nrun:  %+v\nstep: %+v",
								got.Counters, want.Counters)
						}
						if len(got.PerCore) != cores || len(want.PerCore) != cores {
							t.Fatalf("PerCore lengths %d/%d, want %d", len(got.PerCore), len(want.PerCore), cores)
						}
						for c := 0; c < cores; c++ {
							if got.PerCore[c] != want.PerCore[c] {
								t.Fatalf("core %d counters diverge:\nrun:  %+v\nstep: %+v",
									c, got.PerCore[c], want.PerCore[c])
							}
							if m.CoreDigest(c) != stepM.CoreDigest(c) {
								t.Fatalf("core %d digest diverges:\nrun:  %+v\nstep: %+v",
									c, m.CoreDigest(c), stepM.CoreDigest(c))
							}
						}
						if !reflect.DeepEqual(got.Timeline, want.Timeline) {
							t.Fatalf("timelines diverge:\nrun:  %+v\nstep: %+v", got.Timeline, want.Timeline)
						}
						if every > 0 && len(got.Timeline) == 0 {
							t.Fatal("sampled run recorded no timeline")
						}
					})
				}
			}
		}
	}
}

// TestMulticoreRunAllocationFree pins the cluster's batch replay to the
// engine's allocation budget: once a 4-core machine is warm — caches,
// TLBs, page table and kernel at their working set — a whole-trace Run
// allocates only the Result and its PerCore slice.
func TestMulticoreRunAllocationFree(t *testing.T) {
	tr := mcTrace(t, 4, 20_000)
	cfg := Default(VMUltrix)
	cfg.Cores = 4
	cfg.OSPolicy = "lru"
	cfg.MemFrames = 256
	cfg.ShootdownCost = 40
	cfg.WarmupInstrs = 2_000
	m, err := NewMulticore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(tr); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(3, func() {
		if _, err := m.Run(tr); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 2 {
		t.Errorf("steady-state multicore Run allocates %.2f objects per replay, want <= 2 (the Result and PerCore)", avg)
	}
}
