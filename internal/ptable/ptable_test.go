package ptable

import (
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/mem"
	"repro/internal/rng"
)

// must unwraps a constructor's result; test memories are sized to fit.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// userVA clamps an arbitrary value into user virtual space.
func userVA(raw uint64) uint64 { return raw % addr.UserTop }

func TestUltrixGeometry(t *testing.T) {
	u := must(NewUltrix(mem.New(0)))
	// The 2GB user space needs 512K PTEs = 2MB of table (Figure 1).
	lo := u.UPTEAddr(0, 0)
	hi := u.UPTEAddr(0, addr.UserTop-1)
	if lo != addr.UltrixUPTBase {
		t.Fatalf("first UPTE at %#x, want %#x", lo, addr.UltrixUPTBase)
	}
	if span := hi - lo + HierPTEBytes; span != 2<<20 {
		t.Fatalf("UPT spans %d bytes, want 2MB", span)
	}
	// The 2MB table's 512 pages need a 2KB root table.
	rlo := u.RPTEAddr(0, 0)
	rhi := u.RPTEAddr(0, addr.UserTop-1)
	if span := rhi - rlo + HierPTEBytes; span != 2<<10 {
		t.Fatalf("root table spans %d bytes, want 2KB", span)
	}
	if !addr.IsUnmapped(rlo) {
		t.Fatal("root table not in unmapped space (must be wired physical)")
	}
	if addr.IsUnmapped(lo) || !addr.IsKernelMapped(lo) {
		t.Fatal("UPT must live in mapped kernel virtual space")
	}
}

func TestUltrixAdjacentPagesShareUPTEPage(t *testing.T) {
	// PTEs for virtually adjacent pages are adjacent in the table — the
	// spatial-locality property the paper's cache analysis relies on.
	u := must(NewUltrix(mem.New(0)))
	a := u.UPTEAddr(0, 0*addr.PageSize)
	b := u.UPTEAddr(0, 1*addr.PageSize)
	if b-a != HierPTEBytes {
		t.Fatalf("adjacent pages' PTEs %d bytes apart, want %d", b-a, HierPTEBytes)
	}
}

func TestUltrixOneRootPTEMapsManyUserPTEs(t *testing.T) {
	// "a single root-level PTE maps many user-level PTEs" — 1024 of them.
	u := must(NewUltrix(mem.New(0)))
	r0 := u.RPTEAddr(0, 0)
	same := 0
	for page := uint64(0); page < 2048; page++ {
		if u.RPTEAddr(0, page*addr.PageSize) == r0 {
			same++
		}
	}
	if same != 1024 {
		t.Fatalf("root PTE covers %d user pages, want 1024 (4MB segment)", same)
	}
}

func TestMachGeometry(t *testing.T) {
	m := must(NewMach(mem.New(0)))
	if m.UPTEAddr(0, 0) != addr.MachUPTBase {
		t.Fatalf("UPT base = %#x", m.UPTEAddr(0, 0))
	}
	// User table spans 2MB, inside kernel space.
	if span := m.UPTEAddr(0, addr.UserTop-1) - m.UPTEAddr(0, 0) + HierPTEBytes; span != 2<<20 {
		t.Fatalf("Mach UPT spans %d, want 2MB", span)
	}
	// KPTEs live inside the 4MB kernel table.
	k := m.KPTEAddr(m.UPTEAddr(0, 0x1000))
	if k < addr.MachKPTBase || k >= addr.MachKPTBase+(4<<20) {
		t.Fatalf("KPTE %#x outside kernel table", k)
	}
	// Root PTEs live in a 4KB physical table.
	r := m.RPTEAddr(k)
	if !addr.IsUnmapped(r) {
		t.Fatal("Mach root table must be physical")
	}
	if off := r - m.RPTEAddr(addr.MachKPTBase); off >= 4<<10 {
		t.Fatalf("root entry offset %d exceeds 4KB table", off)
	}
}

func TestMachThreeTierChain(t *testing.T) {
	// Full bottom-up chain for a user address: UPTE (kernel virtual) ->
	// KPTE (kernel virtual, inside KPT) -> RPTE (physical).
	m := must(NewMach(mem.New(0)))
	va := uint64(0x00400000)
	upte := m.UPTEAddr(0, va)
	if !addr.IsKernelMapped(upte) {
		t.Fatal("UPTE not in mapped kernel space")
	}
	kpte := m.KPTEAddr(upte)
	if !addr.IsKernelMapped(kpte) {
		t.Fatal("KPTE not in mapped kernel space")
	}
	rpte := m.RPTEAddr(kpte)
	if !addr.IsUnmapped(rpte) {
		t.Fatal("RPTE not physical")
	}
}

func TestIntelRootIndexing(t *testing.T) {
	i := must(NewIntel(mem.New(0)))
	// Addresses in the same 4MB segment share a root entry; different
	// segments get different entries 4 bytes apart.
	if i.RPTEAddr(0, 0) != i.RPTEAddr(0, 4<<20-1) {
		t.Fatal("same segment got different root entries")
	}
	if d := i.RPTEAddr(0, 4<<20) - i.RPTEAddr(0, 0); d != HierPTEBytes {
		t.Fatalf("adjacent segments' root entries %d apart, want %d", d, HierPTEBytes)
	}
	if !addr.IsUnmapped(i.RPTEAddr(0, 0)) {
		t.Fatal("Intel root table must be physical")
	}
}

func TestIntelPTEPagesStableAndDisjoint(t *testing.T) {
	i := must(NewIntel(mem.New(0)))
	a1 := i.UPTEAddr(0, 0x1000)
	a2 := i.UPTEAddr(0, 0x1000)
	if a1 != a2 {
		t.Fatal("UPTEAddr not stable")
	}
	// Two pages in the same segment: PTEs 4 bytes apart in the same
	// PTE page.
	b := i.UPTEAddr(0, 0x2000)
	if b-a1 != HierPTEBytes {
		t.Fatalf("PTEs for adjacent pages %d apart, want 4", b-a1)
	}
	// Pages in different segments land in different PTE pages.
	c := i.UPTEAddr(0, 8<<20)
	if addr.PageBase(c) == addr.PageBase(a1) {
		t.Fatal("different segments share a PTE page")
	}
	if !addr.IsUnmapped(a1) {
		t.Fatal("Intel PTE pages must be physical")
	}
}

func TestIntelPTEPagesAvoidRootTable(t *testing.T) {
	i := must(NewIntel(mem.New(0)))
	root := addr.PhysOf(i.RPTEAddr(0, 0))
	pte := addr.PhysOf(i.UPTEAddr(0, 0))
	if addr.PageBase(pte) == addr.PageBase(root) {
		t.Fatal("PTE page allocated on top of the root table")
	}
}

func TestPARISCSizing(t *testing.T) {
	p := must(NewPARISC(mem.New(0)))
	// 8MB memory -> 2048 frames -> 2:1 ratio -> 4096 entries (paper).
	if p.Entries() != 4096 {
		t.Fatalf("entries = %d, want 4096", p.Entries())
	}
	if p.PTEBytes() != 16 {
		t.Fatalf("PTE size = %d, want 16 (Huck & Hays)", p.PTEBytes())
	}
}

func TestPARISCHashInRange(t *testing.T) {
	p := must(NewPARISC(mem.New(0)))
	f := func(raw uint64) bool {
		return p.Hash(0, userVA(raw)) < p.Entries()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPARISCChainGrowsOnCollision(t *testing.T) {
	p := must(NewPARISC(mem.New(0)))
	// Find two user VAs with the same hash but different VPNs.
	va1 := uint64(0x1000)
	h := p.Hash(0, va1)
	var va2 uint64
	for v := va1 + addr.PageSize; ; v += addr.PageSize {
		if p.Hash(0, v) == h {
			va2 = v
			break
		}
	}
	c1 := p.ChainAddrs(0, va1)
	if len(c1) != 1 {
		t.Fatalf("first chain len %d, want 1", len(c1))
	}
	c2 := p.ChainAddrs(0, va2)
	if len(c2) != 2 {
		t.Fatalf("colliding chain len %d, want 2", len(c2))
	}
	// First element is the shared HPT bucket.
	if c2[0] != c1[0] {
		t.Fatal("colliding lookups do not share the HPT bucket")
	}
	// Re-lookup of va1 still takes one load; va2 still takes two.
	if len(p.ChainAddrs(0, va1)) != 1 || len(p.ChainAddrs(0, va2)) != 2 {
		t.Fatal("chain walk lengths unstable")
	}
	if p.ChainLength(0, va1) != 2 {
		t.Fatalf("ChainLength = %d, want 2", p.ChainLength(0, va1))
	}
}

func TestPARISCChainAddrsStable(t *testing.T) {
	p := must(NewPARISC(mem.New(0)))
	va := uint64(0x5000)
	a := p.ChainAddrs(0, va)
	b := p.ChainAddrs(0, va)
	if len(a) != len(b) {
		t.Fatal("chain length changed between lookups")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("chain addresses changed between lookups")
		}
	}
}

func TestPARISCAddressesWithinTables(t *testing.T) {
	phys := mem.New(0)
	p := must(NewPARISC(phys))
	hpt, _ := phys.Region("parisc-hpt")
	crt, _ := phys.Region("parisc-crt")
	r := rng.New(1)
	for n := 0; n < 5000; n++ {
		va := userVA(r.Uint64())
		for i, a := range p.ChainAddrs(0, va) {
			pa := addr.PhysOf(a)
			if i == 0 {
				if pa < hpt.Base || pa >= hpt.Base+hpt.Size {
					t.Fatalf("HPT access %#x outside table", pa)
				}
			} else if pa < crt.Base || pa >= crt.Base+crt.Size {
				t.Fatalf("CRT access %#x outside table", pa)
			}
		}
	}
}

func TestPARISCAverageChainLengthNearTheory(t *testing.T) {
	// With a 2:1 entry ratio the paper expects ~1.25 average chain
	// length; populate 2048 random pages (a full 8MB memory's worth).
	p := must(NewPARISC(mem.New(0)))
	r := rng.New(2)
	seen := map[uint64]bool{}
	for len(seen) < 2048 {
		va := addr.PageBase(userVA(r.Uint64()))
		if seen[va] {
			continue
		}
		seen[va] = true
		p.ChainAddrs(0, va)
	}
	if p.MappedPages() != 2048 {
		t.Fatalf("mapped %d pages, want 2048", p.MappedPages())
	}
	avg := p.AverageChainLength()
	if avg < 1.1 || avg > 1.45 {
		t.Fatalf("average chain length %.3f, want ~1.25 (paper §3.1)", avg)
	}
}

func TestPARISCEmptyAverage(t *testing.T) {
	p := must(NewPARISC(mem.New(0)))
	if p.AverageChainLength() != 0 {
		t.Fatal("empty table's average chain length not 0")
	}
}

func TestPARISCDensity(t *testing.T) {
	// The key claim the paper makes for inverted tables: PTEs for a
	// sparse set of pages are densely packed. Touch widely scattered
	// pages and verify the PTE addresses stay within the 64KB HPT — in a
	// hierarchical table the same pages would spread over 2MB.
	p := must(NewPARISC(mem.New(0)))
	u := must(NewUltrix(mem.New(0)))
	var hptSpanPages, uptSpanPages map[uint64]bool = map[uint64]bool{}, map[uint64]bool{}
	for i := uint64(0); i < 256; i++ {
		va := (i * 97 * addr.PageSize * 113) % addr.UserTop // scattered
		hptSpanPages[addr.PageBase(p.ChainAddrs(0, va)[0])] = true
		uptSpanPages[addr.PageBase(u.UPTEAddr(0, va))] = true
	}
	if len(hptSpanPages) >= len(uptSpanPages) {
		t.Fatalf("inverted table touches %d PTE pages vs hierarchical %d; want fewer",
			len(hptSpanPages), len(uptSpanPages))
	}
}

func TestNoTLBDisjunctButDeterministic(t *testing.T) {
	n := must(NewNoTLB(mem.New(0)))
	// Same-page addresses give identical UPTEs; adjacent segments give
	// non-adjacent (disjunct) group pages.
	if n.UPTEAddr(0, 0x1000) != n.UPTEAddr(0, 0x1FFF) {
		t.Fatal("UPTEAddr not page-stable")
	}
	g0 := addr.PageBase(n.UPTEAddr(0, 0))
	g1 := addr.PageBase(n.UPTEAddr(0, 4<<20))
	if g1 == g0+addr.PageSize {
		t.Fatal("page groups are contiguous; table must be disjunct")
	}
}

func TestNoTLBGroupsNeverCollide(t *testing.T) {
	n := must(NewNoTLB(mem.New(0)))
	bases := map[uint64]uint64{}
	for seg := uint64(0); seg < 512; seg++ {
		b := addr.PageBase(n.UPTEAddr(0, seg<<22))
		if prev, ok := bases[b]; ok {
			t.Fatalf("segments %d and %d share group page %#x", prev, seg, b)
		}
		bases[b] = seg
		if b < addr.NoTLBUPTBase || b >= addr.NoTLBUPTBase+addr.NoTLBUPTWindow {
			t.Fatalf("group page %#x outside disjunct window", b)
		}
	}
}

func TestNoTLBRootMirrorsUltrixCosts(t *testing.T) {
	// Same root-table shape as Ultrix: 2KB physical, one entry per 4MB
	// segment ("the cost of walking the tables is identical").
	n := must(NewNoTLB(mem.New(0)))
	if d := n.RPTEAddr(0, 4<<20) - n.RPTEAddr(0, 0); d != HierPTEBytes {
		t.Fatalf("root entries %d apart, want %d", d, HierPTEBytes)
	}
	span := n.RPTEAddr(0, addr.UserTop-1) - n.RPTEAddr(0, 0) + HierPTEBytes
	if span != 2<<10 {
		t.Fatalf("root table spans %d, want 2KB", span)
	}
	if !addr.IsUnmapped(n.RPTEAddr(0, 0)) {
		t.Fatal("NOTLB root not physical")
	}
}

func TestWithinPagePTESharingProperty(t *testing.T) {
	// Property: for every organization, two addresses on the same virtual
	// page resolve to the same leaf PTE address.
	phys := mem.New(0)
	u := must(NewUltrix(phys))
	i := must(NewIntel(mem.New(0)))
	n := must(NewNoTLB(mem.New(0)))
	m := must(NewMach(mem.New(0)))
	p := must(NewPARISC(mem.New(0)))
	f := func(raw uint64, off1, off2 uint16) bool {
		base := addr.PageBase(userVA(raw))
		a := base + uint64(off1)%addr.PageSize
		b := base + uint64(off2)%addr.PageSize
		if u.UPTEAddr(0, a) != u.UPTEAddr(0, b) {
			return false
		}
		if m.UPTEAddr(0, a) != m.UPTEAddr(0, b) {
			return false
		}
		if i.UPTEAddr(0, a) != i.UPTEAddr(0, b) || i.RPTEAddr(0, a) != i.RPTEAddr(0, b) {
			return false
		}
		if n.UPTEAddr(0, a) != n.UPTEAddr(0, b) || n.RPTEAddr(0, a) != n.RPTEAddr(0, b) {
			return false
		}
		ca, cb := p.ChainAddrs(0, a), p.ChainAddrs(0, b)
		if len(ca) != len(cb) {
			return false
		}
		for k := range ca {
			if ca[k] != cb[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistinctPagesDistinctPTEsProperty(t *testing.T) {
	// Property: distinct virtual pages get distinct leaf PTE addresses in
	// the hierarchical organizations.
	u := must(NewUltrix(mem.New(0)))
	i := must(NewIntel(mem.New(0)))
	n := must(NewNoTLB(mem.New(0)))
	f := func(r1, r2 uint64) bool {
		a, b := userVA(r1), userVA(r2)
		if addr.VPN(a) == addr.VPN(b) {
			return true
		}
		return u.UPTEAddr(0, a) != u.UPTEAddr(0, b) &&
			i.UPTEAddr(0, a) != i.UPTEAddr(0, b) &&
			n.UPTEAddr(0, a) != n.UPTEAddr(0, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNames(t *testing.T) {
	phys := mem.New(64 << 20)
	if must(NewUltrix(phys)).Name() != "ultrix" {
		t.Fatal("ultrix name")
	}
	if must(NewMach(phys)).Name() != "mach" {
		t.Fatal("mach name")
	}
	if must(NewIntel(phys)).Name() != "intel" {
		t.Fatal("intel name")
	}
	if must(NewPARISC(phys)).Name() != "pa-risc" {
		t.Fatal("pa-risc name")
	}
	if must(NewNoTLB(phys)).Name() != "notlb" {
		t.Fatal("notlb name")
	}
}
