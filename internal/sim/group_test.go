package sim

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/simerr"
	"repro/internal/trace"
	"repro/internal/workload"
)

// groupableVMs returns every bundled machine GroupKey admits.
func groupableVMs(t testing.TB) []string {
	t.Helper()
	var out []string
	for _, vm := range AllVMs() {
		if _, ok := GroupKey(Default(vm)); ok {
			out = append(out, vm)
		}
	}
	return out
}

// paperGroup is the paper's 32 L1 geometries for vm, plus a 2-way L1
// and a non-default L2 in the same group.
func paperGroup(vm string, warmup int) []Config {
	var cfgs []Config
	for _, line := range []int{16, 32, 64, 128} {
		for size := 1 << 10; size <= 128<<10; size <<= 1 {
			c := Default(vm)
			c.L1SizeBytes, c.L1LineBytes, c.WarmupInstrs = size, line, warmup
			cfgs = append(cfgs, c)
		}
	}
	assoc := Default(vm)
	assoc.L1Assoc, assoc.L1SizeBytes, assoc.WarmupInstrs = 2, 8<<10, warmup
	l2 := Default(vm)
	l2.L2SizeBytes, l2.L2LineBytes, l2.L1LineBytes, l2.WarmupInstrs = 1<<20, 64, 32, warmup
	return append(cfgs, assoc, l2)
}

// checkGroup runs cfgs as one group over tr and holds every point's
// Counters, AvgChainLength and Digest to a single run's.
func checkGroup(t *testing.T, cfgs []Config, tr *trace.Trace) {
	t.Helper()
	g, err := newGroup(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	g.digests = make([]Digest, len(cfgs))
	got, err := g.run(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Counters != want.Counters {
			t.Fatalf("%s: grouped counters diverge from the single run:\ngroup:  %+v\nsingle: %+v",
				cfg.Label(), got[i].Counters, want.Counters)
		}
		if got[i].AvgChainLength != want.AvgChainLength {
			t.Fatalf("%s: chain length: group %v, single %v", cfg.Label(), got[i].AvgChainLength, want.AvgChainLength)
		}
		if g.digests[i] != e.Digest() {
			t.Fatalf("%s: digest: group %+v, single %+v", cfg.Label(), g.digests[i], e.Digest())
		}
		if got[i].Config != cfg || got[i].Workload != tr.Name {
			t.Fatalf("%s: result labelled %s on %q", cfg.Label(), got[i].Config.Label(), got[i].Workload)
		}
	}
}

// TestGroupMatchesPerPoint: a grouped run equals the single runs of its
// configurations, for every eligible bundled machine over the paper's
// 32 L1 geometries plus a set-associative L1 and a non-default L2, on a
// single-program trace and on a multiprogram one (ASID switches, and
// the untagged intel TLB's flushes), with no warmup, a warmup inside the
// trace, and the default warmup, which these traces cap at half. One
// longer trace runs ultrix at the default warmup uncapped.
func TestGroupMatchesPerPoint(t *testing.T) {
	const n = 12_000
	mp, err := workload.Multiprogram([]string{"gcc", "ijpeg"}, 11, n, 1_500)
	if err != nil {
		t.Fatal(err)
	}
	traces := []*trace.Trace{tr(t, "gcc", n), mp}
	for _, vm := range groupableVMs(t) {
		for _, tc := range traces {
			for _, warm := range []int{0, n / 3, Default(vm).WarmupInstrs} {
				t.Run(fmt.Sprintf("%s/%s/warmup=%d", vm, tc.Name, warm), func(t *testing.T) {
					checkGroup(t, paperGroup(vm, warm), tc)
				})
			}
		}
	}
	t.Run("ultrix/vortex/default-warmup-uncapped", func(t *testing.T) {
		p, err := workload.ByName("vortex")
		if err != nil {
			t.Fatal(err)
		}
		warm := Default(VMUltrix).WarmupInstrs
		checkGroup(t, paperGroup(VMUltrix, warm), workload.Generate(p, 42, 2*warm+50_000))
	})
}

// TestGroupEligibility pins what GroupKey admits: the TLB organizations
// and BASE, and none of the configurations the grouped run cannot
// reproduce.
func TestGroupEligibility(t *testing.T) {
	for _, vm := range []string{VMBase, VMUltrix, VMMach, VMIntel, VMPARISC} {
		if _, ok := GroupKey(Default(vm)); !ok {
			t.Errorf("%s is not groupable", vm)
		}
	}
	ineligible := map[string]func(*Config){
		"notlb":      func(c *Config) { c.VM = VMNoTLB },
		"spur":       func(c *Config) { c.VM = VMSPUR },
		"cores":      func(c *Config) { c.Cores = 2 },
		"kernel":     func(c *Config) { c.OSPolicy = "lru" },
		"frames":     func(c *Config) { c.MemFrames = 64 },
		"sampling":   func(c *Config) { c.SampleEvery = 1000 },
		"invariants": func(c *Config) { c.CheckInvariants = true },
		"unified":    func(c *Config) { c.UnifiedCaches = true },
		"invalid":    func(c *Config) { c.L1SizeBytes = 3000 },
	}
	for name, mutate := range ineligible {
		c := Default(VMUltrix)
		mutate(&c)
		if _, ok := GroupKey(c); ok {
			t.Errorf("%s configuration is groupable", name)
		}
	}
	a, b := Default(VMUltrix), Default(VMUltrix)
	b.L1SizeBytes, b.L2LineBytes, b.L1Assoc = 1<<10, 64, 4
	ka, _ := GroupKey(a)
	kb, _ := GroupKey(b)
	if ka != kb {
		t.Error("configurations differing only in cache geometry have different group keys")
	}
	b.TLBEntries = 64
	if kb, _ := GroupKey(b); ka == kb {
		t.Error("configurations with different TLBs share a group key")
	}
	if _, err := SimulateGroup(context.Background(), []Config{a, b}, tr(t, "gcc", 100)); !errors.Is(err, simerr.ErrConfigInvalid) {
		t.Errorf("SimulateGroup over two groups: err = %v, want ErrConfigInvalid", err)
	}
}

// TestGroupCancelled: a grouped run under a cancelled context aborts
// with an error wrapping simerr.ErrCancelled.
func TestGroupCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SimulateGroup(ctx, paperGroup(VMUltrix, 0), tr(t, "gcc", 5_000))
	if !errors.Is(err, simerr.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}

// FuzzGroupMatchesPerPoint holds a grouped run to the single runs over
// generated inputs: the organization and its TLB size, a multiprogram
// trace's seed, length and quantum, the warmup, and a handful of cache
// geometries drawn from the fuzzed bits. Small TLBs make the walker's
// cache operations frequent enough that misordering them shows.
func FuzzGroupMatchesPerPoint(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint64(1), uint16(3000), uint16(500), uint16(0), uint64(0x0123456789abcdef))
	f.Add(uint8(2), uint8(1), uint64(7), uint16(5000), uint16(4000), uint16(1200), uint64(0xfedcba9876543210))
	f.Add(uint8(3), uint8(3), uint64(9), uint16(2000), uint16(300), uint16(1999), uint64(0x5555aaaa5555aaaa))
	f.Add(uint8(5), uint8(0), uint64(3), uint16(4000), uint16(1000), uint16(700), uint64(0x0f0f0f0ff0f0f0f0))
	f.Add(uint8(1), uint8(0), uint64(5), uint16(8000), uint16(800), uint16(0), uint64(0x0000000000000000))
	vms := groupableVMs(f)
	f.Fuzz(func(t *testing.T, vmSel, tlbSel uint8, seed uint64, n, quantum, warm uint16, geom uint64) {
		if n < 2 || quantum == 0 {
			t.Skip()
		}
		vm := vms[int(vmSel)%len(vms)]
		tr, err := workload.Multiprogram([]string{"gcc", "vortex"}, seed, int(n), int(quantum))
		if err != nil {
			t.Skip()
		}
		var cfgs []Config
		for k := 0; k < 6; k++ {
			bits := geom >> (10 * k)
			c := Default(vm)
			c.TLBEntries = 16 << (tlbSel % 4)
			c.WarmupInstrs = int(warm)
			c.L1LineBytes = 16 << (bits & 3)
			c.L1SizeBytes = max(c.L1LineBytes*4, 1<<10<<(bits>>2&7))
			if bits>>5&3 == 3 {
				c.L1Assoc = 2
			}
			c.L2SizeBytes = 1 << 20 << (bits >> 7 & 1)
			c.L2LineBytes = 64 << (bits >> 8 & 1)
			cfgs = append(cfgs, c)
		}
		checkGroup(t, cfgs, tr)
	})
}

// BenchmarkGroupPaperGeometries compares one grouped run over the
// paper's 32 L1 geometries with 32 single runs, per organization; ns/ref
// is per point, so the two modes read directly against each other.
func BenchmarkGroupPaperGeometries(b *testing.B) {
	const n = 200_000
	trc := tr(b, "gcc", n)
	for _, vm := range []string{VMUltrix, VMIntel, VMBase} {
		cfgs := paperGroup(vm, Default(vm).WarmupInstrs)[:32]
		b.Run(vm+"/grouped", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := SimulateGroup(context.Background(), cfgs, trc); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*len(cfgs)), "ns/ref")
		})
		b.Run(vm+"/single", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, cfg := range cfgs {
					if _, err := Simulate(cfg, trc); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*len(cfgs)), "ns/ref")
		})
	}
}
