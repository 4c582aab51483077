// Package ptable implements the five page-table organizations the paper
// compares (Figures 1–5):
//
//   - Ultrix/MIPS: two-tiered hierarchical table walked bottom-up; a 2MB
//     linear user page table per process in mapped kernel virtual space,
//     itself mapped by a 2KB root table wired in physical memory.
//   - Mach/MIPS: three-tiered hierarchical table walked bottom-up; 2MB
//     per-process user tables in kernel space ("the virtual base address
//     of the table is essentially Base + (processID * 2MB)"), a 4MB
//     kernel table mapping the 4GB kernel space, and a 4KB root table in
//     physical memory.
//   - Intel x86: two-tiered hierarchical table walked top-down in physical
//     space; a per-process 4KB root table whose entries point at
//     page-sized PTE pages.
//   - PA-RISC: hashed inverted page table (Huck & Hays) with 16-byte PTEs,
//     a 2:1 entry-to-frame ratio, and a collision-resolution table. The
//     table is global: the hash mixes in the space (address-space) id, so
//     one table serves every process — the inverted table's multiprogram
//     advantage.
//   - NOTLB "disjunct": like the Ultrix table, but the page-sized PTE
//     groups are scattered (disjunct) in a flat global space.
//
// Each organization's job in the simulation is purely *addressing*: given
// a faulting virtual address (and the faulting process's address-space
// id), produce the address(es) of the page-table entries a walker must
// load, so those loads hit the simulated caches (and TLBs, for
// virtually-addressed tables) at the right places with the right
// densities. PTE contents are never modelled — the trace-driven simulator
// only needs where the bytes live, exactly like the paper's simulator.
package ptable

import (
	"repro/internal/addr"
	"repro/internal/mem"
)

// PTE sizes. Hierarchical tables use 4-byte PTEs ("a PTE for a
// hierarchical page table scales with the size of the physical address");
// the PA-RISC inverted table uses Huck & Hays' 16-byte PTEs.
const (
	HierPTEBytes     = 4
	InvertedPTEBytes = 16
)

// MaxProcesses bounds the address-space ids an organization supports;
// per-process structures (root tables, user-table virtual regions) are
// reserved for this many processes up front.
const MaxProcesses = 16

// Organization names every table reports.
const (
	NameUltrix = "ultrix"
	NameMach   = "mach"
	NameIntel  = "intel"
	NamePARISC = "pa-risc"
	NameNoTLB  = "notlb"
)

// Ultrix is the two-tiered Ultrix/MIPS table (paper Figure 1).
//
// Each process's 2GB user space is mapped by a 2MB linear array of 4-byte
// PTEs in kernel virtual space; that array's 512 pages are mapped by a
// 2KB per-process root table wired in physical memory.
type Ultrix struct {
	root mem.Region // MaxProcesses contiguous 2KB root tables
}

// NewUltrix reserves the root tables and returns the organization. A
// reservation that does not fit phys returns its error, which wraps
// simerr.ErrMemExhausted.
func NewUltrix(phys *mem.Phys) (*Ultrix, error) {
	root, err := phys.Reserve("ultrix-root", MaxProcesses*(2<<10))
	if err != nil {
		return nil, err
	}
	return &Ultrix{root: root}, nil
}

// Name returns the organization name.
func (u *Ultrix) Name() string { return NameUltrix }

// PTEBytes returns the PTE size.
func (u *Ultrix) PTEBytes() int { return HierPTEBytes }

// uptBase returns the virtual base of process asid's 2MB user page table.
func (u *Ultrix) uptBase(asid uint8) uint64 {
	return addr.UltrixUPTBase + uint64(asid)*(2<<20)
}

// UPTEAddr returns the *virtual* address of the user PTE mapping va in
// process asid's table. A load of this address can itself miss the D-TLB
// (the bottom-up walk).
func (u *Ultrix) UPTEAddr(asid uint8, va uint64) uint64 {
	return u.uptBase(asid) + addr.VPN(va)*HierPTEBytes
}

// RPTEAddr returns the unmapped (physical-window) address of the root PTE
// mapping the user-page-table page that holds UPTEAddr(asid, va).
func (u *Ultrix) RPTEAddr(asid uint8, va uint64) uint64 {
	uptPage := addr.VPN(u.UPTEAddr(asid, va)) - addr.VPN(u.uptBase(asid))
	return addr.Unmapped(u.root.Base + uint64(asid)*(2<<10) + uptPage*HierPTEBytes)
}

// Mach is the three-tiered Mach/MIPS table (paper Figure 2).
//
// A process's user table is a 2MB region in kernel space at
// Base + asid*2MB; the entire 4GB kernel space is mapped by a 4MB kernel
// table; the kernel table's 1024 pages are mapped by a 4KB root table in
// physical memory. The kernel and root tables are global.
type Mach struct {
	root mem.Region
}

// NewMach reserves the root table and returns the organization.
func NewMach(phys *mem.Phys) (*Mach, error) {
	root, err := phys.Reserve("mach-root", 4<<10)
	if err != nil {
		return nil, err
	}
	return &Mach{root: root}, nil
}

// Name returns the organization name.
func (m *Mach) Name() string { return NameMach }

// PTEBytes returns the PTE size.
func (m *Mach) PTEBytes() int { return HierPTEBytes }

// UPTEAddr returns the virtual address of the user PTE mapping va, inside
// process asid's table: Base + asid*2MB + 4*VPN (paper Figure 2).
func (m *Mach) UPTEAddr(asid uint8, va uint64) uint64 {
	return addr.MachUPTBase + uint64(asid)*(2<<20) + addr.VPN(va)*HierPTEBytes
}

// KPTEAddr returns the virtual address, inside the 4MB kernel table, of
// the kernel PTE mapping the kernel-space page containing kva (typically a
// user-page-table page). This load can itself miss the D-TLB, invoking the
// root handler.
func (m *Mach) KPTEAddr(kva uint64) uint64 {
	// VPN(kva) indexes the 4MB table; kva is a 32-bit address, so the
	// offset is always within the table, but the mask documents it.
	return addr.MachKPTBase + (addr.VPN(kva)*HierPTEBytes)%(4<<20)
}

// RPTEAddr returns the unmapped address of the root PTE mapping the
// kernel-table page that holds KPTEAddr(kva).
func (m *Mach) RPTEAddr(kva uint64) uint64 {
	kptPage := addr.VPN(m.KPTEAddr(kva)) - addr.VPN(addr.MachKPTBase)
	return addr.Unmapped(m.root.Base + kptPage*HierPTEBytes)
}

// Intel is the two-tiered x86 table walked top-down in physical space
// (paper Figure 3). Each process has a 4KB root table (page directory);
// each of its 1024 entries maps a page-sized PTE page covering a 4MB
// segment of user space. PTE pages are physical frames allocated on first
// use, "not necessarily contiguous in either physical space or virtual
// space".
type Intel struct {
	root     mem.Region // MaxProcesses contiguous 4KB page directories
	phys     *mem.Phys
	ptePages map[uint64]uint64 // asid<<32|segment -> PTE page physical base
}

// NewIntel reserves the root tables and returns the organization.
func NewIntel(phys *mem.Phys) (*Intel, error) {
	root, err := phys.Reserve("intel-root", MaxProcesses*(4<<10))
	if err != nil {
		return nil, err
	}
	return &Intel{
		root:     root,
		phys:     phys,
		ptePages: make(map[uint64]uint64),
	}, nil
}

// Name returns the organization name.
func (i *Intel) Name() string { return NameIntel }

// PTEBytes returns the PTE size.
func (i *Intel) PTEBytes() int { return HierPTEBytes }

// segment returns va's 4MB-segment index (the root-table index).
func segment(va uint64) uint64 { return va >> 22 }

// RPTEAddr returns the unmapped address of the root (page-directory) entry
// for va in process asid. The x86 walk references this on *every* TLB
// miss — the top-down property the paper's INTEL break-downs highlight
// (rpte-L2/rpte-MEM).
func (i *Intel) RPTEAddr(asid uint8, va uint64) uint64 {
	return addr.Unmapped(i.root.Base + uint64(asid)*(4<<10) + segment(va)*HierPTEBytes)
}

// UPTEAddr returns the unmapped address of the leaf PTE for va, allocating
// the segment's PTE page first-touch. The walk is physical: this load can
// miss caches but never the TLB.
func (i *Intel) UPTEAddr(asid uint8, va uint64) uint64 {
	key := uint64(asid)<<32 | segment(va)
	base, ok := i.ptePages[key]
	if !ok {
		// PTE pages are ordinary frames; naming them by a synthetic VPN
		// far outside user space keeps them distinct from user pages and
		// from every other process's PTE pages.
		pfn := i.phys.FrameFor(1<<40 + key)
		base = pfn << addr.PageShift
		i.ptePages[key] = base
	}
	idx := (va >> addr.PageShift) & 0x3FF
	return addr.Unmapped(base + idx*HierPTEBytes)
}

// PARISC is the Huck & Hays hashed page table (paper Figure 4): no hash
// anchor table, 16-byte PTEs, entries resolved through a collision-
// resolution table (CRT). With 8MB physical memory (2,048 frames) and a
// 2:1 entry ratio, the table has 4,096 entries (64KB); the CRT is
// unbounded ("we place no restriction on the size of the collision
// resolution table"). The table is global across processes: the hash
// mixes the space id with the virtual page number.
type PARISC struct {
	hpt     mem.Region
	crt     mem.Region
	entries uint64
	// chains[i] lists the tagged VPNs (asid<<32|vpn) hashing to bucket i
	// in insertion order; element 0 lives in the HPT slot, the rest in
	// CRT slots.
	chains map[uint64][]uint64
	// crtSlot maps a tagged VPN to its CRT slot index (for chain
	// elements > 0).
	crtSlot map[uint64]uint64
	nextCRT uint64
}

// NewPARISC reserves the hashed table and CRT. The entry count is
// 2× the physical frame count, per the paper's 2:1 choice.
func NewPARISC(phys *mem.Phys) (*PARISC, error) {
	entries := phys.Pages() * 2
	hpt, err := phys.Reserve("parisc-hpt", entries*InvertedPTEBytes)
	if err != nil {
		return nil, err
	}
	// CRT sized like the HPT; "no restriction" in the paper, and chains
	// average 1.25 entries so this never fills.
	crt, err := phys.Reserve("parisc-crt", entries*InvertedPTEBytes)
	if err != nil {
		return nil, err
	}
	return &PARISC{
		hpt:     hpt,
		crt:     crt,
		entries: entries,
		chains:  make(map[uint64][]uint64),
		crtSlot: make(map[uint64]uint64),
	}, nil
}

// Name returns the organization name.
func (p *PARISC) Name() string { return NamePARISC }

// PTEBytes returns the PTE size.
func (p *PARISC) PTEBytes() int { return InvertedPTEBytes }

// Entries returns the hashed-table entry count.
func (p *PARISC) Entries() uint64 { return p.entries }

// Hash implements Huck & Hays' function: "a single XOR of the upper
// virtual address bits and the lower virtual page number bits", with the
// space id standing in for the upper (space-register) bits.
func (p *PARISC) Hash(asid uint8, va uint64) uint64 {
	vpn := addr.VPN(va)
	space := uint64(asid) * 0x9E37 // spread space ids across the table
	return (vpn ^ (vpn >> addr.Log2(p.entries)) ^ space) & (p.entries - 1)
}

// ChainAddrs returns the unmapped addresses of the PTEs a lookup for va
// in process asid must load, in walk order: the HPT bucket entry first,
// then CRT entries until the matching one. The mapping is installed
// first-touch (the paper charges nothing for table initialization), so
// the returned slice always ends at va's own entry.
func (p *PARISC) ChainAddrs(asid uint8, va uint64) []uint64 {
	tagged := uint64(asid)<<32 | addr.VPN(va)
	bucket := p.Hash(asid, va)
	chain := p.chains[bucket]
	pos := -1
	for i, v := range chain {
		if v == tagged {
			pos = i
			break
		}
	}
	if pos < 0 {
		// First touch: install at the chain tail.
		chain = append(chain, tagged)
		p.chains[bucket] = chain
		pos = len(chain) - 1
		if pos > 0 {
			p.crtSlot[tagged] = p.nextCRT
			p.nextCRT++
		}
	}
	out := make([]uint64, 0, pos+1)
	out = append(out, addr.Unmapped(p.hpt.Base+bucket*InvertedPTEBytes))
	for i := 1; i <= pos; i++ {
		slot := p.crtSlot[chain[i]]
		out = append(out, addr.Unmapped(p.crt.Base+(slot*InvertedPTEBytes)%p.crt.Size))
	}
	return out
}

// ChainLength returns the current chain length for va's bucket (counting
// the HPT slot), without installing anything.
func (p *PARISC) ChainLength(asid uint8, va uint64) int {
	return len(p.chains[p.Hash(asid, va)])
}

// AverageChainLength returns the mean over non-empty buckets, the
// statistic the paper quotes ("GCC, for example, produced an average
// collision-chain length of just over 1.3").
func (p *PARISC) AverageChainLength() float64 {
	if len(p.chains) == 0 {
		return 0
	}
	total := 0
	for _, c := range p.chains {
		total += len(c)
	}
	return float64(total) / float64(len(p.chains))
}

// MappedPages returns how many distinct (process, page) pairs have been
// installed.
func (p *PARISC) MappedPages() int {
	n := 0
	for _, c := range p.chains {
		n += len(c)
	}
	return n
}

// NoTLB is the disjunct two-tiered table of the softvm organization
// (paper Figure 5): page-sized PTE groups scattered in a flat global
// space, each group mapping a 4MB segment, with a 2KB per-process root
// table in physical memory. Costs are identical to the Ultrix table; only
// the placement of the PTE groups differs.
type NoTLB struct {
	root mem.Region // MaxProcesses contiguous 2KB root tables
}

// NewNoTLB reserves the root tables and returns the organization.
func NewNoTLB(phys *mem.Phys) (*NoTLB, error) {
	root, err := phys.Reserve("notlb-root", MaxProcesses*(2<<10))
	if err != nil {
		return nil, err
	}
	return &NoTLB{root: root}, nil
}

// Name returns the organization name.
func (n *NoTLB) Name() string { return NameNoTLB }

// PTEBytes returns the PTE size.
func (n *NoTLB) PTEBytes() int { return HierPTEBytes }

// groupBase scatters process asid's group g within the disjunct window
// using a bijective multiplicative permutation (odd multiplier,
// power-of-two page count), so groups are deterministically
// non-contiguous yet never collide within a process. Distinct processes'
// groups may share window pages only if their (asid, group) pairs
// scramble together, which the +asid*977 offset prevents for the group
// counts in use.
func groupBase(asid uint8, g uint64) uint64 {
	pages := addr.NoTLBUPTWindow >> addr.PageShift
	scrambled := ((g + uint64(asid)*977) * 2654435761) & (pages - 1)
	return addr.NoTLBUPTBase + scrambled<<addr.PageShift
}

// UPTEAddr returns the virtual address of the user PTE mapping va, within
// va's scattered page group for process asid.
func (n *NoTLB) UPTEAddr(asid uint8, va uint64) uint64 {
	idx := (va >> addr.PageShift) & 0x3FF
	return groupBase(asid, segment(va)) + idx*HierPTEBytes
}

// RPTEAddr returns the unmapped address of the root entry locating va's
// page group in process asid's root table.
func (n *NoTLB) RPTEAddr(asid uint8, va uint64) uint64 {
	return addr.Unmapped(n.root.Base + uint64(asid)*(2<<10) + segment(va)*HierPTEBytes)
}
