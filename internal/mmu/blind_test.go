package mmu

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/stats"
)

// recordingMachine logs every call a walker makes, in order, and answers
// PTELoad with a fixed level. Its D-TLB is a plain set of the keys
// inserted so far, so every DTLBLookup answer is a function of the call
// history alone: two runs whose histories agree get the same answers.
type recordingMachine struct {
	level cache.Level
	dtlb  map[[2]uint64]bool
	calls []string
}

func (m *recordingMachine) log(format string, args ...any) {
	m.calls = append(m.calls, fmt.Sprintf(format, args...))
}

func (m *recordingMachine) ExecHandler(c stats.Component, pc uint64, n int, fetches bool) {
	m.log("exec %v %#x %d %v", c, pc, n, fetches)
}

func (m *recordingMachine) PTELoad(a uint64, l2c, memc stats.Component) cache.Level {
	m.log("pte %#x %v %v", a, l2c, memc)
	return m.level
}

func (m *recordingMachine) DTLBLookup(asid uint8, vpn uint64) bool {
	hit := m.dtlb[[2]uint64{uint64(asid), vpn}]
	m.log("dtlb? %d %#x %v", asid, vpn, hit)
	return hit
}

func (m *recordingMachine) DTLBInsert(asid uint8, vpn uint64) {
	m.dtlb[[2]uint64{uint64(asid), vpn}] = true
	m.log("dtlb+ %d %#x", asid, vpn)
}

func (m *recordingMachine) DTLBInsertProtected(asid uint8, vpn uint64) {
	m.dtlb[[2]uint64{uint64(asid), vpn}] = true
	m.log("dtlb+p %d %#x", asid, vpn)
}

func (m *recordingMachine) ITLBInsert(asid uint8, vpn uint64) { m.log("itlb+ %d %#x", asid, vpn) }
func (m *recordingMachine) Interrupt()                        { m.log("interrupt") }

// walkCalls builds spec's walker over a fresh memory and records the
// calls it makes servicing a fixed, seeded sequence of misses while
// every PTE load reports level.
func walkCalls(t *testing.T, spec *machine.Spec, level cache.Level) (Refill, []string) {
	t.Helper()
	r, err := Build(spec, mem.New(0))
	if err != nil {
		t.Fatal(err)
	}
	if r == nil {
		return nil, nil
	}
	m := &recordingMachine{level: level, dtlb: map[[2]uint64]bool{}}
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 400; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		// A few address spaces and a footprint of a few hundred pages
		// spread over several page-table pages, so the walks take both
		// their resident and their nested paths.
		asid := uint8(x % 3)
		va := (x>>8)%512<<addr.PageShift | (x>>20)%4<<30
		r.HandleMiss(m, asid, va, x>>40&1 == 0)
	}
	return r, m.calls
}

// TestCacheBlindMarking pins walker eligibility for grouped runs: for
// every bundled machine, the call sequences under an always-L1-hit and
// an always-memory PTELoad are identical exactly when the walker is
// marked cache-blind. notlb and spur are the negative controls — they
// branch on the UPTE load's level — so marking either fails here.
func TestCacheBlindMarking(t *testing.T) {
	sawUnmarked := 0
	for _, name := range machine.Names() {
		t.Run(name, func(t *testing.T) {
			spec, err := machine.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			r, hit := walkCalls(t, spec, cache.L1Hit)
			if r == nil {
				return // no VM system: nothing to walk
			}
			_, miss := walkCalls(t, spec, cache.Memory)
			same := slices.Equal(hit, miss)
			if same != r.CacheBlind() {
				t.Errorf("%s: identical call sequences = %v, but CacheBlind() = %v", name, same, r.CacheBlind())
			}
			if !r.CacheBlind() {
				sawUnmarked++
			}
		})
	}
	if sawUnmarked != 2 {
		t.Errorf("%d bundled walkers are not cache-blind, want 2 (notlb and spur)", sawUnmarked)
	}
}
