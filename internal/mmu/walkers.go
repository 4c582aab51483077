package mmu

import (
	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/ptable"
	"repro/internal/stats"
)

// Ultrix is the DEC Ultrix organization on a MIPS-style software-managed
// TLB (paper §3.1 ULTRIX): a two-tiered table walked bottom-up. The
// ten-instruction user handler loads the UPTE through the D-TLB; if that
// load itself misses the D-TLB, a twenty-instruction root handler loads
// the root PTE from the wired physical root table and installs the
// user-page-table mapping in a protected TLB slot. The handler lengths
// are parameters so a declared machine can scale them.
type Ultrix struct {
	meta
	pt         *ptable.Ultrix
	userInstrs int
	rootInstrs int
}

// HandleMiss implements the walk_page_table pseudocode of paper §3.1.
func (u *Ultrix) HandleMiss(m Machine, asid uint8, va uint64, instr bool) {
	m.Interrupt()
	m.ExecHandler(stats.UHandler, addr.HandlerPC(hUltrixUser), u.userInstrs, true)
	upte := u.pt.UPTEAddr(asid, va)
	if !m.DTLBLookup(asid, addr.VPN(upte)) {
		// The UPTE load faulted: nested exception into the root handler,
		// which reads the wired root table (physical; cannot itself miss
		// the TLB) and installs the UPT-page mapping protected.
		m.Interrupt()
		m.ExecHandler(stats.RHandler, addr.HandlerPC(hUltrixRoot), u.rootInstrs, true)
		m.PTELoad(u.pt.RPTEAddr(asid, va), stats.RPTEL2, stats.RPTEMem)
		m.DTLBInsertProtected(asid, addr.VPN(upte))
	}
	m.PTELoad(upte, stats.UPTEL2, stats.UPTEMem)
	insertUser(m, asid, va, instr)
}

// Mach is the Mach organization on MIPS (paper §3.1 MACH): a three-tiered
// table walked bottom-up. The kernel-level handler services D-TLB misses
// on UPTE loads; the root-level handler services D-TLB misses on KPTE
// loads and is deliberately expensive (500 instructions plus ten
// administrative loads) to model Mach's general-exception path.
type Mach struct {
	meta
	pt    *ptable.Mach
	admin mem.Region
	// adminCursor walks the administrative data so the loads displace
	// real cache lines rather than hitting one hot line forever.
	adminCursor  uint64
	userInstrs   int
	kernelInstrs int
	rootInstrs   int
	adminLoads   int
}

// newMachTables reserves the Mach page table and the root handler's
// administrative data in phys.
func newMachTables(phys *mem.Phys) (*ptable.Mach, mem.Region, error) {
	pt, err := ptable.NewMach(phys)
	if err != nil {
		return nil, mem.Region{}, err
	}
	admin, err := phys.Reserve("mach-admin", 16<<10)
	if err != nil {
		return nil, mem.Region{}, err
	}
	return pt, admin, nil
}

// HandleMiss implements the three-level bottom-up walk. Kernel-space
// structures (the kernel table and below) are shared, so their TLB
// entries live in address space 0 regardless of the faulting process.
func (mc *Mach) HandleMiss(m Machine, asid uint8, va uint64, instr bool) {
	m.Interrupt()
	m.ExecHandler(stats.UHandler, addr.HandlerPC(hMachUser), mc.userInstrs, true)
	upte := mc.pt.UPTEAddr(asid, va)
	if !m.DTLBLookup(0, addr.VPN(upte)) {
		m.Interrupt()
		m.ExecHandler(stats.KHandler, addr.HandlerPC(hMachKernel), mc.kernelInstrs, true)
		kpte := mc.pt.KPTEAddr(upte)
		if !m.DTLBLookup(0, addr.VPN(kpte)) {
			m.Interrupt()
			m.ExecHandler(stats.RHandler, addr.HandlerPC(hMachRoot), mc.rootInstrs, true)
			// Administrative memory activity, accounted under the
			// rpte components (paper §4.2: "rpte-MEM, … along with
			// rpte-L2 and rhandlers, is where we account for the
			// simulated 'administrative' memory activity").
			for i := 0; i < mc.adminLoads; i++ {
				a := mc.admin.Base + mc.adminCursor%mc.admin.Size
				m.PTELoad(addr.Unmapped(a), stats.RPTEL2, stats.RPTEMem)
				mc.adminCursor += 64
			}
			m.PTELoad(mc.pt.RPTEAddr(kpte), stats.RPTEL2, stats.RPTEMem)
			m.DTLBInsertProtected(0, addr.VPN(kpte))
		}
		m.PTELoad(kpte, stats.KPTEL2, stats.KPTEMem)
		m.DTLBInsertProtected(0, addr.VPN(upte))
	}
	m.PTELoad(upte, stats.UPTEL2, stats.UPTEMem)
	insertUser(m, asid, va, instr)
}

// Intel is the x86 organization (paper §3.1 INTEL): a hardware-managed
// TLB refilled by a seven-cycle state machine that walks the two-tiered
// table top-down in physical space. No interrupt is taken, the
// instruction caches are untouched, and the root PTE is referenced on
// every miss (it is never cached in the TLB).
type Intel struct {
	meta
	pt         *ptable.Intel
	walkCycles int
}

// HandleMiss performs the hardware walk with two physical PTE loads.
func (i *Intel) HandleMiss(m Machine, asid uint8, va uint64, instr bool) {
	m.ExecHandler(stats.UHandler, 0, i.walkCycles, false)
	m.PTELoad(i.pt.RPTEAddr(asid, va), stats.RPTEL2, stats.RPTEMem)
	m.PTELoad(i.pt.UPTEAddr(asid, va), stats.UPTEL2, stats.UPTEMem)
	insertUser(m, asid, va, instr)
}

// PARISC is the HP-UX hashed-page-table organization (paper §3.1
// PA-RISC): a software-managed TLB refilled by a twenty-instruction
// handler that hashes the faulting address and walks the collision chain
// through physical, cacheable space. The TLB is not partitioned; entries
// carry space ids.
type PARISC struct {
	meta
	pt            *ptable.PARISC
	handlerInstrs int
}

// HandleMiss hashes the address and walks the chain; every chain element
// is a 16-byte PTE load charged to the upte components ("variable # PTE
// loads", Table 4).
func (p *PARISC) HandleMiss(m Machine, asid uint8, va uint64, instr bool) {
	m.Interrupt()
	m.ExecHandler(stats.UHandler, addr.HandlerPC(hPARISC), p.handlerInstrs, true)
	for _, a := range p.pt.ChainAddrs(asid, va) {
		m.PTELoad(a, stats.UPTEL2, stats.UPTEMem)
	}
	insertUser(m, asid, va, instr)
}

// NoTLB is the softvm/VMP organization (paper §3.1 NOTLB): there is no
// TLB; the operating system receives an interrupt on every user-level L2
// cache miss and performs the translation + cache fill in software,
// walking a disjunct two-tiered table. If the UPTE load itself misses the
// L2 cache, a nested root handler loads the root PTE from physical space.
type NoTLB struct {
	meta
	pt         *ptable.NoTLB
	userInstrs int
	rootInstrs int
}

// HandleMiss runs the ten-instruction cache-miss handler; the UPTE load
// goes through the data caches (it is a virtual address in the disjunct
// window) and, if it misses the L2, the twenty-instruction root handler
// loads the root PTE. Handler code is in unmapped space, so its own
// misses are charged but cannot recurse.
func (n *NoTLB) HandleMiss(m Machine, asid uint8, va uint64, instr bool) {
	m.Interrupt()
	m.ExecHandler(stats.UHandler, addr.HandlerPC(hNoTLBUser), n.userInstrs, true)
	if lvl := m.PTELoad(n.pt.UPTEAddr(asid, va), stats.UPTEL2, stats.UPTEMem); lvl == cache.Memory {
		m.Interrupt()
		m.ExecHandler(stats.RHandler, addr.HandlerPC(hNoTLBRoot), n.rootInstrs, true)
		m.PTELoad(n.pt.RPTEAddr(asid, va), stats.RPTEL2, stats.RPTEMem)
	}
}
