package mmu

import (
	"fmt"
	"testing"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/stats"
)

// build makes the bundled machine's walker over a fresh memory, the way
// the engine does, and asserts the walker type it dispatches to.
func build[W Refill](t *testing.T, name string) W {
	t.Helper()
	spec, err := machine.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return buildSpec[W](t, spec)
}

// buildSpec is build for a spec that need not be bundled.
func buildSpec[W Refill](t *testing.T, spec *machine.Spec) W {
	t.Helper()
	r, err := Build(spec, mem.New(0))
	if err != nil {
		t.Fatal(err)
	}
	w, ok := r.(W)
	if !ok {
		t.Fatalf("%s builds a %T", spec.Name, r)
	}
	return w
}

// fakeMachine records every walker action for verification.
type fakeMachine struct {
	dtlbResident map[uint64]bool
	loadLevel    cache.Level // what PTELoad reports

	execs       []execRec
	loads       []loadRec
	dtlbLookups []uint64
	dtlbIns     []uint64
	protIns     []uint64
	itlbIns     []uint64
	interrupts  int
}

type execRec struct {
	comp    stats.Component
	pc      uint64
	n       int
	fetches bool
}

type loadRec struct {
	a         uint64
	l2c, memc stats.Component
}

func newFake() *fakeMachine {
	return &fakeMachine{dtlbResident: map[uint64]bool{}, loadLevel: cache.L1Hit}
}

func (f *fakeMachine) ExecHandler(c stats.Component, pc uint64, n int, fetches bool) {
	f.execs = append(f.execs, execRec{c, pc, n, fetches})
}

func (f *fakeMachine) PTELoad(a uint64, l2c, memc stats.Component) cache.Level {
	f.loads = append(f.loads, loadRec{a, l2c, memc})
	return f.loadLevel
}

func (f *fakeMachine) DTLBLookup(asid uint8, vpn uint64) bool {
	f.dtlbLookups = append(f.dtlbLookups, vpn)
	return f.dtlbResident[vpn]
}

func (f *fakeMachine) DTLBInsert(asid uint8, vpn uint64) { f.dtlbIns = append(f.dtlbIns, vpn) }
func (f *fakeMachine) DTLBInsertProtected(asid uint8, vpn uint64) {
	f.protIns = append(f.protIns, vpn)
	f.dtlbResident[vpn] = true
}
func (f *fakeMachine) ITLBInsert(asid uint8, vpn uint64) { f.itlbIns = append(f.itlbIns, vpn) }
func (f *fakeMachine) Interrupt()                        { f.interrupts++ }

const testVA = uint64(0x00452120)

func TestUltrixFastPath(t *testing.T) {
	u := build[*Ultrix](t, "ultrix")
	f := newFake()
	// Pre-map the UPT page so the nested handler does not run.
	upteVPN := (addr.UltrixUPTBase + addr.VPN(testVA)*4) >> addr.PageShift
	f.dtlbResident[upteVPN] = true

	u.HandleMiss(f, 0, testVA, false)

	if f.interrupts != 1 {
		t.Fatalf("interrupts = %d, want 1", f.interrupts)
	}
	if len(f.execs) != 1 || f.execs[0].comp != stats.UHandler || f.execs[0].n != 10 || !f.execs[0].fetches {
		t.Fatalf("execs = %+v, want one 10-instr fetching uhandler", f.execs)
	}
	if len(f.loads) != 1 || f.loads[0].l2c != stats.UPTEL2 || f.loads[0].memc != stats.UPTEMem {
		t.Fatalf("loads = %+v, want single UPTE load", f.loads)
	}
	if !addr.IsKernelMapped(f.loads[0].a) {
		t.Fatal("Ultrix UPTE load must be a kernel-virtual address (bottom-up walk)")
	}
	if len(f.dtlbIns) != 1 || f.dtlbIns[0] != addr.VPN(testVA) {
		t.Fatalf("dtlb inserts = %v", f.dtlbIns)
	}
	if len(f.itlbIns) != 0 || len(f.protIns) != 0 {
		t.Fatal("unexpected ITLB/protected inserts on fast path")
	}
}

func TestUltrixNestedRootPath(t *testing.T) {
	u := build[*Ultrix](t, "ultrix")
	f := newFake() // UPT page not resident -> nested miss

	u.HandleMiss(f, 0, testVA, true)

	if f.interrupts != 2 {
		t.Fatalf("interrupts = %d, want 2 (user + root)", f.interrupts)
	}
	if len(f.execs) != 2 || f.execs[1].comp != stats.RHandler || f.execs[1].n != 20 {
		t.Fatalf("execs = %+v, want uhandler then 20-instr rhandler", f.execs)
	}
	if len(f.loads) != 2 {
		t.Fatalf("loads = %d, want RPTE + UPTE", len(f.loads))
	}
	if f.loads[0].l2c != stats.RPTEL2 || !addr.IsUnmapped(f.loads[0].a) {
		t.Fatalf("first load %+v must be physical RPTE", f.loads[0])
	}
	if len(f.protIns) != 1 {
		t.Fatalf("protected inserts = %v, want the UPT page", f.protIns)
	}
	if len(f.itlbIns) != 1 || f.itlbIns[0] != addr.VPN(testVA) {
		t.Fatalf("instruction miss must insert into I-TLB; got %v", f.itlbIns)
	}
	// Handlers are page-aligned and in unmapped space.
	for _, e := range f.execs {
		if addr.PageOffset(e.pc) != 0 || !addr.IsUnmapped(e.pc) {
			t.Fatalf("handler pc %#x not page-aligned unmapped", e.pc)
		}
	}
	if f.execs[0].pc == f.execs[1].pc {
		t.Fatal("user and root handlers share a code segment")
	}
}

func TestMachThreeLevelPath(t *testing.T) {
	mc := build[*Mach](t, "mach")
	f := newFake() // nothing resident: full three-level walk

	mc.HandleMiss(f, 0, testVA, false)

	if f.interrupts != 3 {
		t.Fatalf("interrupts = %d, want 3", f.interrupts)
	}
	if len(f.execs) != 3 {
		t.Fatalf("execs = %+v, want u/k/r handlers", f.execs)
	}
	if f.execs[1].comp != stats.KHandler || f.execs[1].n != 20 {
		t.Fatalf("kernel handler = %+v", f.execs[1])
	}
	if f.execs[2].comp != stats.RHandler || f.execs[2].n != 500 {
		t.Fatalf("root handler = %+v, want 500 instrs (paper MACH)", f.execs[2])
	}
	// Loads: 10 admin + 1 RPTE + 1 KPTE + 1 UPTE = 13.
	if len(f.loads) != 13 {
		t.Fatalf("loads = %d, want 13", len(f.loads))
	}
	rpteLoads, kpteLoads, upteLoads := 0, 0, 0
	for _, l := range f.loads {
		switch l.l2c {
		case stats.RPTEL2:
			rpteLoads++
		case stats.KPTEL2:
			kpteLoads++
		case stats.UPTEL2:
			upteLoads++
		}
	}
	if rpteLoads != 11 || kpteLoads != 1 || upteLoads != 1 {
		t.Fatalf("load mix rpte=%d kpte=%d upte=%d, want 11/1/1", rpteLoads, kpteLoads, upteLoads)
	}
	// Two protected inserts: the kernel-table page and the UPT page.
	if len(f.protIns) != 2 {
		t.Fatalf("protected inserts = %v, want 2", f.protIns)
	}
}

func TestMachFastPath(t *testing.T) {
	mc := build[*Mach](t, "mach")
	f := newFake()
	upteVPN := addr.VPN(mc.pt.UPTEAddr(0, testVA))
	f.dtlbResident[upteVPN] = true

	mc.HandleMiss(f, 0, testVA, false)

	if f.interrupts != 1 || len(f.execs) != 1 || len(f.loads) != 1 {
		t.Fatalf("fast path: interrupts=%d execs=%d loads=%d, want 1/1/1",
			f.interrupts, len(f.execs), len(f.loads))
	}
}

func TestMachMidPath(t *testing.T) {
	// UPT page missing but kernel-table page resident: user + kernel
	// handlers only.
	mc := build[*Mach](t, "mach")
	f := newFake()
	kpteVPN := addr.VPN(mc.pt.KPTEAddr(mc.pt.UPTEAddr(0, testVA)))
	f.dtlbResident[kpteVPN] = true

	mc.HandleMiss(f, 0, testVA, false)

	if f.interrupts != 2 || len(f.execs) != 2 {
		t.Fatalf("mid path: interrupts=%d execs=%d, want 2/2", f.interrupts, len(f.execs))
	}
	if f.execs[1].comp != stats.KHandler {
		t.Fatalf("second handler = %v, want khandler", f.execs[1].comp)
	}
}

func TestIntelWalk(t *testing.T) {
	i := build[*Intel](t, "intel")
	f := newFake()

	i.HandleMiss(f, 0, testVA, false)

	if f.interrupts != 0 {
		t.Fatal("Intel must not take interrupts (hardware-managed TLB)")
	}
	if len(f.execs) != 1 || f.execs[0].n != 7 || f.execs[0].fetches {
		t.Fatalf("execs = %+v, want 7 non-fetching cycles", f.execs)
	}
	if len(f.loads) != 2 {
		t.Fatalf("loads = %d, want exactly 2 (paper: 'exactly two memory references')", len(f.loads))
	}
	for _, l := range f.loads {
		if !addr.IsUnmapped(l.a) {
			t.Fatalf("Intel load %#x must be physical (top-down walk)", l.a)
		}
	}
	if f.loads[0].l2c != stats.RPTEL2 || f.loads[1].l2c != stats.UPTEL2 {
		t.Fatal("Intel walk order must be root then leaf (top-down)")
	}
	if len(f.dtlbLookups) != 0 {
		t.Fatal("Intel physical walk must not probe the D-TLB")
	}
}

func TestIntelRootReferencedOnEveryMiss(t *testing.T) {
	i := build[*Intel](t, "intel")
	f := newFake()
	i.HandleMiss(f, 0, testVA, false)
	i.HandleMiss(f, 0, testVA+addr.PageSize, false)
	rpte := 0
	for _, l := range f.loads {
		if l.l2c == stats.RPTEL2 {
			rpte++
		}
	}
	if rpte != 2 {
		t.Fatalf("root references = %d for 2 misses, want 2 ('the root level is accessed on every TLB miss')", rpte)
	}
}

func TestPARISCWalk(t *testing.T) {
	p := build[*PARISC](t, "pa-risc")
	f := newFake()

	p.HandleMiss(f, 0, testVA, true)

	if f.interrupts != 1 {
		t.Fatalf("interrupts = %d, want 1", f.interrupts)
	}
	if len(f.execs) != 1 || f.execs[0].n != 20 || !f.execs[0].fetches {
		t.Fatalf("execs = %+v, want 20 fetching instrs", f.execs)
	}
	if len(f.loads) != 1 {
		t.Fatalf("uncollided chain loads = %d, want 1", len(f.loads))
	}
	if !addr.IsUnmapped(f.loads[0].a) {
		t.Fatal("hashed-table load must be physical")
	}
	if len(f.dtlbLookups) != 0 {
		t.Fatal("PA-RISC physical handler must not probe the D-TLB for PTEs")
	}
}

func TestPARISCCollisionCostsExtraLoads(t *testing.T) {
	p := build[*PARISC](t, "pa-risc")
	// Find a colliding pair.
	va1 := uint64(0x10000)
	h := p.pt.Hash(0, va1)
	va2 := va1
	for {
		va2 += addr.PageSize
		if p.pt.Hash(0, va2) == h {
			break
		}
	}
	f := newFake()
	p.HandleMiss(f, 0, va1, false)
	p.HandleMiss(f, 0, va2, false)
	if len(f.loads) != 3 {
		t.Fatalf("loads = %d, want 3 (1 + 2-element chain)", len(f.loads))
	}
}

func TestNoTLBFastPath(t *testing.T) {
	n := build[*NoTLB](t, "notlb")
	f := newFake()
	f.loadLevel = cache.L1Hit // UPTE resident in cache

	n.HandleMiss(f, 0, testVA, false)

	if f.interrupts != 1 || len(f.execs) != 1 || len(f.loads) != 1 {
		t.Fatalf("fast path: %d/%d/%d, want 1/1/1", f.interrupts, len(f.execs), len(f.loads))
	}
	if addr.IsUnmapped(f.loads[0].a) {
		t.Fatal("NOTLB UPTE load must be a virtual (disjunct-window) address")
	}
	if len(f.itlbIns)+len(f.dtlbIns)+len(f.protIns) != 0 {
		t.Fatal("NOTLB must not insert into TLBs")
	}
}

func TestNoTLBNestedRootOnUPTEL2Miss(t *testing.T) {
	n := build[*NoTLB](t, "notlb")
	f := newFake()
	f.loadLevel = cache.Memory // every PTE load misses L2

	n.HandleMiss(f, 0, testVA, true)

	if f.interrupts != 2 {
		t.Fatalf("interrupts = %d, want 2", f.interrupts)
	}
	if len(f.execs) != 2 || f.execs[1].comp != stats.RHandler || f.execs[1].n != 20 {
		t.Fatalf("execs = %+v", f.execs)
	}
	if len(f.loads) != 2 || !addr.IsUnmapped(f.loads[1].a) {
		t.Fatalf("loads = %+v, want UPTE then physical RPTE", f.loads)
	}
}

func TestHWMIPSPaths(t *testing.T) {
	h := build[*HWMIPS](t, "hw-mips")
	f := newFake()
	h.HandleMiss(f, 0, testVA, false) // root path (UPT not mapped)
	if f.interrupts != 0 {
		t.Fatal("hardware walker must not interrupt")
	}
	if len(f.loads) != 2 || len(f.protIns) != 1 {
		t.Fatalf("root path loads=%d prot=%d, want 2/1", len(f.loads), len(f.protIns))
	}
	// Second miss on a page sharing the UPT page: fast path, 1 load.
	f2 := newFake()
	f2.dtlbResident[addr.VPN(h.pt.UPTEAddr(0, testVA))] = true
	h.HandleMiss(f2, 0, testVA+addr.PageSize, false)
	if len(f2.loads) != 1 {
		t.Fatalf("fast path loads = %d, want 1", len(f2.loads))
	}
	for _, e := range f2.execs {
		if e.fetches {
			t.Fatal("hardware walker must not fetch handler code")
		}
	}
}

func TestPowerPCWalk(t *testing.T) {
	p := build[*PowerPC](t, "powerpc")
	f := newFake()
	p.HandleMiss(f, 0, testVA, false)
	if f.interrupts != 0 {
		t.Fatal("PowerPC hardware walker must not interrupt")
	}
	if len(f.execs) != 1 || f.execs[0].fetches {
		t.Fatal("PowerPC walker must not fetch handler code")
	}
	if len(f.loads) != 1 || !addr.IsUnmapped(f.loads[0].a) {
		t.Fatalf("loads = %+v, want one physical hashed-table load", f.loads)
	}
	if p.pt.MappedPages() != 1 {
		t.Fatal("hashed table did not install the mapping")
	}
}

func TestSPURPaths(t *testing.T) {
	s := build[*SPUR](t, "spur")
	f := newFake()
	f.loadLevel = cache.Memory
	s.HandleMiss(f, 0, testVA, false)
	if f.interrupts != 0 {
		t.Fatal("SPUR must not interrupt")
	}
	if len(f.loads) != 2 {
		t.Fatalf("nested path loads = %d, want 2", len(f.loads))
	}
	f2 := newFake()
	f2.loadLevel = cache.L2Hit
	s.HandleMiss(f2, 0, testVA, false)
	if len(f2.loads) != 1 {
		t.Fatalf("fast path loads = %d, want 1", len(f2.loads))
	}
}

// The programmable FSM is a spec, not a walker: programmed for a table,
// it builds that table's hardware walker at the spec's cycle cost.
func TestPFSMHierarchical(t *testing.T) {
	p := build[*Intel](t, "pfsm-hier")
	f := newFake()
	p.HandleMiss(f, 0, testVA, false)
	if len(f.execs) != 1 || f.execs[0].n != 7 {
		t.Fatalf("default cycles = %+v, want 7", f.execs)
	}
	if len(f.loads) != 2 {
		t.Fatalf("loads = %d, want 2", len(f.loads))
	}
}

func TestPFSMHashedCustomCycles(t *testing.T) {
	spec, err := machine.Lookup("pfsm-hashed")
	if err != nil {
		t.Fatal(err)
	}
	spec.Costs.WalkCycles = 12
	p := buildSpec[*PowerPC](t, spec)
	f := newFake()
	p.HandleMiss(f, 0, testVA, true)
	if f.execs[0].n != 12 {
		t.Fatalf("cycles = %d, want 12", f.execs[0].n)
	}
	if len(f.loads) != 1 {
		t.Fatalf("loads = %d, want 1", len(f.loads))
	}
	if len(f.itlbIns) != 1 {
		t.Fatal("PFSM did not insert the I-TLB mapping")
	}
}

// TestRefillMetadata pins, for every bundled machine, the walker Build
// dispatches to and the metadata it reports.
func TestRefillMetadata(t *testing.T) {
	type meta struct {
		walker  string
		usesTLB bool
		prot    int
		tagged  bool
	}
	want := map[string]meta{
		"ultrix":      {"*mmu.Ultrix", true, 16, true},
		"mach":        {"*mmu.Mach", true, 16, true},
		"intel":       {"*mmu.Intel", true, 0, false},
		"pa-risc":     {"*mmu.PARISC", true, 0, true},
		"notlb":       {"*mmu.NoTLB", false, 0, true},
		"base":        {"<nil>", false, 0, false},
		"hw-mips":     {"*mmu.HWMIPS", true, 16, true},
		"powerpc":     {"*mmu.PowerPC", true, 0, true},
		"spur":        {"*mmu.SPUR", false, 0, true},
		"pfsm-hier":   {"*mmu.Intel", true, 0, true},
		"pfsm-hashed": {"*mmu.PowerPC", true, 0, true},
		"clustered":   {"*mmu.Clustered", true, 0, true},
		"l2tlb":       {"*mmu.Ultrix", true, 16, true},
	}
	bundled := machine.Bundled()
	if len(bundled) != len(want) {
		t.Errorf("%d bundled machines, want %d", len(bundled), len(want))
	}
	for _, spec := range bundled {
		w, ok := want[spec.Name]
		if !ok {
			t.Errorf("bundled machine %q has no expected metadata", spec.Name)
			continue
		}
		r, err := Build(spec, mem.New(0))
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if got := fmt.Sprintf("%T", r); got != w.walker {
			t.Errorf("%s builds a %s, want %s", spec.Name, got, w.walker)
		}
		if r == nil {
			continue
		}
		got := meta{w.walker, r.UsesTLB(), r.ProtectedSlots(), r.ASIDsInTLB()}
		if r.Name() != spec.Name || got != w {
			t.Errorf("%s reports %q %+v, want %+v", spec.Name, r.Name(), got, w)
		}
	}
}
