package mem

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/simerr"
)

func TestDefaultsTo8MB(t *testing.T) {
	p := New(0)
	if p.Size() != 8<<20 {
		t.Fatalf("default size = %d, want 8MB (paper §3.1)", p.Size())
	}
	if p.Pages() != 2048 {
		t.Fatalf("default pages = %d, want 2048 (paper: \"An 8MB physical memory has 2,048 4KB pages\")", p.Pages())
	}
}

func TestSizeRoundsUpToPage(t *testing.T) {
	p := New(addr.PageSize + 1)
	if p.Size() != 2*addr.PageSize {
		t.Fatalf("size = %d, want %d", p.Size(), 2*addr.PageSize)
	}
}

func TestReserveLayout(t *testing.T) {
	p := New(0)
	a, err := p.Reserve("root", 2048) // rounds to one page
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Reserve("hpt", 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if a.Base != 0 || a.Size != addr.PageSize {
		t.Fatalf("region a = %+v", a)
	}
	if b.Base != addr.PageSize || b.Size != 64<<10 {
		t.Fatalf("region b = %+v", b)
	}
	if got := a.Unmapped(); got != addr.UnmappedBase {
		t.Fatalf("Unmapped = %#x", got)
	}
	regs := p.Regions()
	if len(regs) != 2 || regs[0].Name != "root" || regs[1].Name != "hpt" {
		t.Fatalf("Regions() = %+v", regs)
	}
	if r, ok := p.Region("hpt"); !ok || r != b {
		t.Fatalf("Region(hpt) = %+v, %v", r, ok)
	}
	if _, ok := p.Region("nope"); ok {
		t.Fatal("Region of unknown name returned ok")
	}
}

// reserve is Reserve for reservations a test sizes to fit.
func reserve(t *testing.T, p *Phys, name string, size uint64) Region {
	t.Helper()
	r, err := p.Reserve(name, size)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestReserveDuplicateFails(t *testing.T) {
	p := New(0)
	reserve(t, p, "x", 4096)
	if _, err := p.Reserve("x", 4096); err == nil {
		t.Fatal("duplicate reservation succeeded")
	}
}

func TestReserveTooLargeFails(t *testing.T) {
	p := New(1 << 20)
	if _, err := p.Reserve("big", 2<<20); !errors.Is(err, simerr.ErrMemExhausted) {
		t.Fatalf("oversized reservation: err=%v, want ErrMemExhausted", err)
	}
}

func TestReserveAfterAllocationFails(t *testing.T) {
	p := New(0)
	p.FrameFor(1)
	if _, err := p.Reserve("late", 4096); err == nil {
		t.Fatal("reservation after allocation succeeded")
	}
}

func TestFrameForStableAndDistinct(t *testing.T) {
	p := New(0)
	reserve(t, p, "root", 4096)
	f1 := p.FrameFor(100)
	f2 := p.FrameFor(200)
	if f1 == f2 {
		t.Fatal("distinct VPNs share a frame")
	}
	if p.FrameFor(100) != f1 {
		t.Fatal("FrameFor not stable")
	}
	if f1 == 0 {
		t.Fatal("first-touch frame overlapped the reserved region")
	}
	if !p.Mapped(100) || p.Mapped(300) {
		t.Fatal("Mapped() inconsistent")
	}
	if p.TouchedPages() != 2 {
		t.Fatalf("TouchedPages = %d, want 2", p.TouchedPages())
	}
}

func TestFramesAvoidReservations(t *testing.T) {
	p := New(0)
	r := reserve(t, p, "tables", 1<<20) // 256 pages
	for vpn := uint64(0); vpn < 100; vpn++ {
		pfn := p.FrameFor(vpn)
		if pfn < r.Size>>addr.PageShift {
			t.Fatalf("frame %d for vpn %d lies inside reservation", pfn, vpn)
		}
	}
}

func TestWrapAround(t *testing.T) {
	p := New(64 << 10) // 16 pages
	for vpn := uint64(0); vpn < 20; vpn++ {
		pfn := p.FrameFor(vpn)
		if pfn >= 16 {
			t.Fatalf("frame %d out of range", pfn)
		}
	}
	if !p.Wrapped() {
		t.Fatal("allocator did not report wrap")
	}
}

func TestNoWrapUnderCapacity(t *testing.T) {
	p := New(0)
	for vpn := uint64(0); vpn < 1000; vpn++ {
		p.FrameFor(vpn)
	}
	if p.Wrapped() {
		t.Fatal("allocator wrapped below capacity")
	}
}

func TestFrameForProperty(t *testing.T) {
	// Property: FrameFor is a function (same vpn -> same pfn) and within
	// bounds for arbitrary touch orders.
	f := func(vpns []uint16) bool {
		p := New(0)
		reserve(t, p, "r", 8192)
		seen := map[uint64]uint64{}
		for _, raw := range vpns {
			vpn := uint64(raw)
			pfn := p.FrameFor(vpn)
			if pfn >= p.Pages() {
				return false
			}
			if prev, ok := seen[vpn]; ok && prev != pfn {
				return false
			}
			seen[vpn] = pfn
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
