package sweep

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/simerr"
	"repro/internal/trace"
	"repro/internal/workload"
)

// paperSpace is the paper's Fig. 6/7 campaign shape — every L1 size and
// line size — over two groupable organizations and notlb, whose points
// run alone.
func paperSpace() []sim.Config {
	return Space{
		Base:    sim.Default(sim.VMUltrix),
		VMs:     []string{sim.VMUltrix, sim.VMIntel, sim.VMNoTLB},
		L1Sizes: PaperL1Sizes(),
		L1Lines: PaperLineSizes(),
	}.Configs()
}

func groupTrace(t testing.TB) *trace.Trace {
	t.Helper()
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	return workload.Generate(p, 3, 8000)
}

// TestGroupedSweepMatchesSimulate: a sweep over the paper space, whose
// ultrix and intel points run as two groups, equals a plain
// sim.Simulate loop point for point, emits byte-identical CSV at 1 and
// 4 workers, and reports every point to PointDone exactly once.
func TestGroupedSweepMatchesSimulate(t *testing.T) {
	tr := groupTrace(t)
	cfgs := paperSpace()
	var want []Point
	for _, cfg := range cfgs {
		res, err := sim.Simulate(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, Point{Config: cfg, Result: res})
	}
	wantCSV := renderCSV(t, tr.Name, want)
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		done := make([]int, len(cfgs))
		pts, err := RunWithOptions(context.Background(), tr, cfgs, Options{
			Workers: workers,
			PointDone: func(i int, _ Point) {
				mu.Lock()
				done[i]++
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pts {
			if p.Err != nil {
				t.Fatalf("workers=%d: point %d: %v", workers, i, p.Err)
			}
			if p.Result.Counters != want[i].Result.Counters || p.Result.AvgChainLength != want[i].Result.AvgChainLength {
				t.Fatalf("workers=%d: %s diverges from sim.Simulate", workers, cfgs[i].Label())
			}
			if p.Attempts != 1 || p.Duration <= 0 {
				t.Errorf("workers=%d: point %d: attempts %d, duration %v", workers, i, p.Attempts, p.Duration)
			}
			if done[i] != 1 {
				t.Errorf("workers=%d: PointDone ran %d times for point %d", workers, done[i], i)
			}
		}
		if got := renderCSV(t, tr.Name, pts); !bytes.Equal(got, wantCSV) {
			t.Fatalf("workers=%d: CSV differs from the sim.Simulate loop's:\n%s\nwant:\n%s", workers, got, wantCSV)
		}
	}
}

// TestPlanGroupsFirst: plan dispatches each group of two or more
// pending points first, then the rest alone in index order, and leaves
// journalled points out.
func TestPlanGroupsFirst(t *testing.T) {
	cfgs := paperSpace() // 0-31 ultrix, 32-63 intel, 64-95 notlb
	skip := make([]bool, len(cfgs))
	for i := 0; i < 16; i++ {
		skip[i] = true // half the ultrix group is journalled
	}
	for i := 32; i < 63; i++ {
		skip[i] = true // all of intel's but one
	}
	items := plan(cfgs, skip)
	var wantUltrix []int
	for i := 16; i < 32; i++ {
		wantUltrix = append(wantUltrix, i)
	}
	// The unjournalled half of the ultrix group runs as a group; intel's
	// last point is a group of one, so it runs alone.
	want := [][]int{wantUltrix, {63}}
	for i := 64; i < 96; i++ {
		want = append(want, []int{i})
	}
	if !slices.EqualFunc(items, want, slices.Equal) {
		t.Fatalf("plan = %v\nwant %v", items, want)
	}
}

// TestGroupedSweepResumesHalfAGroup: a journal holding half a group's
// points replays those and runs the other half as one group; the
// resumed campaign's CSV is byte-identical to an uninterrupted one.
func TestGroupedSweepResumesHalfAGroup(t *testing.T) {
	tr := groupTrace(t)
	cfgs := paperSpace()[:32]
	clean, err := RunWithOptions(context.Background(), tr, cfgs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "journal")
	if _, err := RunWithOptions(context.Background(), tr, cfgs[:16], Options{Workers: 1, JournalDir: dir}); err != nil {
		t.Fatal(err)
	}
	pts, err := RunWithOptions(context.Background(), tr, cfgs, Options{Workers: 2, JournalDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if p.Err != nil {
			t.Fatalf("point %d: %v", i, p.Err)
		}
		if p.Resumed != (i < 16) {
			t.Fatalf("point %d resumed = %v", i, p.Resumed)
		}
		// The other half ran as one group, which shares its wall clock
		// out evenly.
		if i >= 16 && (p.Attempts != 1 || p.Duration != pts[16].Duration) {
			t.Fatalf("point %d: attempts %d, duration %v; the group's first point took %v",
				i, p.Attempts, p.Duration, pts[16].Duration)
		}
	}
	if got, want := renderCSV(t, tr.Name, pts), renderCSV(t, tr.Name, clean); !bytes.Equal(got, want) {
		t.Fatalf("resumed CSV differs:\n%s\nwant:\n%s", got, want)
	}
}

// TestFaultGroupAttemptFallsBackPerPoint: when a grouped attempt fails —
// a panic, its deadline, a hook error — its points run one by one
// through the per-point path, so retry, deadline and quarantine apply to
// each point exactly as they would without grouping.
func TestFaultGroupAttemptFallsBackPerPoint(t *testing.T) {
	tr := groupTrace(t)
	cfgs := paperSpace()[:8]
	clean := Run(tr, cfgs, 1)
	cases := []struct {
		name string
		opts Options
		// check inspects the faulted point 3.
		check func(p Point) error
	}{
		{"panic", Options{Retries: 1, PointHook: faults.PanicOnFirst(3, 1)}, func(p Point) error {
			if p.Err != nil || p.Attempts != 2 {
				return errors.New("want recovery on the second per-point attempt")
			}
			return nil
		}},
		{"deadline", Options{PointTimeout: 20 * time.Millisecond, PointHook: faults.StallOn(3)}, func(p Point) error {
			if !errors.Is(p.Err, simerr.ErrPointTimeout) || p.Attempts != 1 {
				return errors.New("want a per-point timeout")
			}
			return nil
		}},
		{"hook", Options{Retries: 3, PointHook: faults.FailFirst(3, 99, nil)}, func(p Point) error {
			if !errors.Is(p.Err, faults.ErrInjected) || p.Attempts != 1 {
				return errors.New("want the deterministic error, not retried")
			}
			return nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.Workers = 2
			pts, err := RunWithOptions(context.Background(), tr, cfgs, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.check(pts[3]); err != nil {
				t.Fatalf("point 3: err %v, attempts %d: %v", pts[3].Err, pts[3].Attempts, err)
			}
			for i, p := range pts {
				if i == 3 {
					continue
				}
				if p.Err != nil || p.Attempts != 1 || p.Result.Counters != clean[i].Result.Counters {
					t.Fatalf("point %d: err %v, attempts %d", i, p.Err, p.Attempts)
				}
			}
		})
	}
}
