package oskernel

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/simerr"
)

// touch is a test helper asserting Touch never errors.
func touch(t *testing.T, k *Kernel, asid uint8, vpn uint64) (Page, bool, bool) {
	t.Helper()
	ev, have, fault, err := k.Touch(asid, vpn)
	if err != nil {
		t.Fatalf("Touch(%d, %#x): %v", asid, vpn, err)
	}
	return ev, have, fault
}

func TestFirstTouchIsFreeAndNeverEvicts(t *testing.T) {
	k, err := New("first-touch", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for vpn := uint64(0); vpn < 100; vpn++ {
		if _, have, fault := touch(t, k, 0, vpn); have || fault {
			t.Fatalf("vpn %d: evict=%v fault=%v, want neither", vpn, have, fault)
		}
	}
	// Re-touches are free too.
	if _, have, fault := touch(t, k, 0, 5); have || fault {
		t.Fatalf("retouch: evict=%v fault=%v", have, fault)
	}
	if k.Resident() != 100 || k.Faults() != 0 || k.Evictions() != 0 {
		t.Fatalf("resident=%d faults=%d evicts=%d", k.Resident(), k.Faults(), k.Evictions())
	}
}

func TestFirstTouchBoundedBudgetExhausts(t *testing.T) {
	k, err := New("first-touch", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for vpn := uint64(0); vpn < 4; vpn++ {
		touch(t, k, 0, vpn)
	}
	_, _, _, err = k.Touch(0, 4)
	if !errors.Is(err, simerr.ErrMemExhausted) {
		t.Fatalf("5th page over 4 frames: err=%v, want ErrMemExhausted", err)
	}
	if simerr.Category(err) != "mem" {
		t.Fatalf("category %q, want mem", simerr.Category(err))
	}
}

func TestRoundRobinEvictsInAdmissionOrder(t *testing.T) {
	k, err := New("round-robin", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	touch(t, k, 1, 10)
	touch(t, k, 1, 20)
	ev, have, fault := touch(t, k, 1, 30)
	if !have || !fault || ev != (Page{ASID: 1, VPN: 10}) {
		t.Fatalf("3rd admit: evict=%v have=%v fault=%v, want oldest page 10", ev, have, fault)
	}
	// Touching the survivor does not refresh FIFO order.
	touch(t, k, 1, 20)
	ev, have, _ = touch(t, k, 1, 40)
	if !have || ev != (Page{ASID: 1, VPN: 20}) {
		t.Fatalf("4th admit evicted %v, want page 20 (FIFO ignores touches)", ev)
	}
}

func TestLRUEvictsColdestTouch(t *testing.T) {
	k, err := New("lru", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	touch(t, k, 0, 1)
	touch(t, k, 0, 2)
	touch(t, k, 0, 1) // refresh page 1; page 2 is now coldest
	ev, have, _ := touch(t, k, 0, 3)
	if !have || ev != (Page{VPN: 2}) {
		t.Fatalf("evicted %v, want page 2", ev)
	}
}

func TestClockGivesSecondChances(t *testing.T) {
	k, err := New("clock", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	touch(t, k, 0, 1)
	touch(t, k, 0, 2)
	// Both have ref bits set; the hand clears 1 then 2, wraps, and
	// evicts 1 (first cleared).
	ev, have, _ := touch(t, k, 0, 3)
	if !have || ev != (Page{VPN: 1}) {
		t.Fatalf("evicted %v, want page 1", ev)
	}
	// Page 2's bit was cleared by that sweep; 3 is fresh. Next fault
	// evicts 2.
	ev, have, _ = touch(t, k, 0, 4)
	if !have || ev != (Page{VPN: 2}) {
		t.Fatalf("evicted %v, want page 2", ev)
	}
}

func TestRandomVictimMatchesSharedStream(t *testing.T) {
	const seed = 7
	k, err := New("random", 3, seed)
	if err != nil {
		t.Fatal(err)
	}
	touch(t, k, 0, 10)
	touch(t, k, 0, 20)
	touch(t, k, 0, 30)
	// The victim spec: Intn(3) over the ascending resident keys, drawn
	// from the documented salted stream.
	want := []uint64{10, 20, 30}[rng.New(seed^KernelSeedSalt).Intn(3)]
	ev, have, _ := touch(t, k, 0, 40)
	if !have || ev.VPN != want {
		t.Fatalf("evicted vpn %d, want %d", ev.VPN, want)
	}
}

func TestRandomDeterministicAcrossRuns(t *testing.T) {
	run := func() []Page {
		k, err := New("random", 8, 99)
		if err != nil {
			t.Fatal(err)
		}
		var evs []Page
		for i := 0; i < 200; i++ {
			vpn := uint64(i*37%64 + 1)
			ev, have, _, err := k.Touch(uint8(i%3), vpn)
			if err != nil {
				t.Fatal(err)
			}
			if have {
				evs = append(evs, ev)
			}
		}
		return evs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("eviction counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("eviction %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestASIDDistinguishesPages(t *testing.T) {
	k, err := New("lru", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	touch(t, k, 1, 7)
	if _, _, fault := touch(t, k, 2, 7); !fault {
		t.Fatal("same VPN in another address space should fault")
	}
	if k.Resident() != 2 {
		t.Fatalf("resident=%d, want 2", k.Resident())
	}
}

func TestUnknownPolicyRejected(t *testing.T) {
	if _, err := New("nonesuch", 0, 1); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := New("lru", -1, 1); err == nil {
		t.Fatal("negative frame budget accepted")
	}
}

func TestPoliciesListsDefaults(t *testing.T) {
	names := Policies()
	if len(names) == 0 || names[0] != "first-touch" {
		t.Fatalf("Policies() = %v, want first-touch first", names)
	}
	for _, n := range names {
		if _, err := New(n, 16, 1); err != nil {
			t.Fatalf("registered policy %q failed to build: %v", n, err)
		}
	}
}

// TestFrameBudgetFitsSlots: slots are int32, so a budget beyond
// math.MaxInt32 frames is rejected rather than silently truncated.
func TestFrameBudgetFitsSlots(t *testing.T) {
	frames := math.MaxInt32
	if _, err := New("lru", frames, 1); err != nil {
		t.Fatalf("budget of %d frames rejected: %v", frames, err)
	}
	frames++
	if _, err := New("lru", frames, 1); err == nil {
		t.Fatalf("budget of %d frames accepted", frames)
	}
}

// pageAt maps index j of a working set onto a page, spreading the set
// over four address spaces.
func pageAt(j int) Page { return Page{ASID: uint8(j & 3), VPN: uint64(j >> 2)} }

// fill touches every page of a span-page working set once, which fills
// the budget (and starts evicting when span exceeds it).
func fill(tb testing.TB, k *Kernel, span int) {
	for j := 0; j < span; j++ {
		p := pageAt(j)
		if _, _, _, err := k.Touch(p.ASID, p.VPN); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestKernelTouchAllocationFree pins the steady state: once the budget
// is full, neither hits nor evicting faults allocate, under any policy.
// First-touch never evicts, so its working set stays within the budget.
// The budget spans many rank-tree nodes, so random's splits and merges
// must recycle them.
func TestKernelTouchAllocationFree(t *testing.T) {
	const frames = 1024
	for _, pol := range Policies() {
		k, err := New(pol, frames, 1)
		if err != nil {
			t.Fatal(err)
		}
		span := 2 * frames
		if pol == "first-touch" {
			span = frames
		}
		fill(t, k, span)
		src := rng.New(1)
		churn := func() {
			for i := 0; i < 20*frames; i++ {
				p := pageAt(src.Intn(span))
				if _, _, _, err := k.Touch(p.ASID, p.VPN); err != nil {
					t.Fatal(err)
				}
			}
		}
		// AllocsPerRun's own warm-up call churns the budget once before
		// the measured call.
		if allocs := testing.AllocsPerRun(1, churn); allocs != 0 {
			t.Errorf("%s: %.0f allocations in %d touches over a full budget, want 0", pol, allocs, 20*frames)
		}
		if pol != "first-touch" && k.Evictions() == 0 {
			t.Errorf("%s: stream never evicted", pol)
		}
	}
}

// freshPage returns the i-th page of a stream that never repeats (for
// i < 2^34): VPNs are scattered by an odd multiplier, a bijection on 32
// bits, over four address spaces.
func freshPage(i int) Page {
	return Page{ASID: uint8(i & 3), VPN: uint64(uint32(i>>2) * 0x9e3779b1)}
}

// BenchmarkTouch measures the steady-state cost of an evicting Touch
// under each evicting policy at a small and a large frame budget. The
// budget is filled first; after that every touch demands a page never
// seen before, so every touch faults and evicts one victim. Per-touch
// cost must not grow with the resident set beyond O(log n).
func BenchmarkTouch(b *testing.B) {
	for _, pol := range Policies()[1:] {
		for _, frames := range []int{1 << 10, 1 << 20} {
			b.Run(fmt.Sprintf("%s/frames=%d", pol, frames), func(b *testing.B) {
				k, err := New(pol, frames, 1)
				if err != nil {
					b.Fatal(err)
				}
				touch := func(i int) {
					p := freshPage(i)
					if _, _, _, err := k.Touch(p.ASID, p.VPN); err != nil {
						b.Fatal(err)
					}
				}
				for i := 0; i < frames; i++ {
					touch(i)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					touch(frames + i)
				}
				b.StopTimer()
				if k.Evictions() != uint64(b.N) {
					b.Fatalf("%d evictions over %d touches", k.Evictions(), b.N)
				}
			})
		}
	}
}
