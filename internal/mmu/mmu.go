// Package mmu implements the paper's TLB-refill mechanisms: one walker
// per memory-management organization (Table 4), plus the hybrid
// organizations the paper interpolates in §4.2. Build makes every walker
// from a machine.Spec; the programmable finite-state machine the paper
// proposes in its conclusions is a spec, not a walker of its own.
//
// A walker is invoked by the simulation engine when a reference cannot be
// translated (a TLB miss for the TLB-based organizations; a user-level L2
// cache miss for the software-managed-cache organizations) and performs
// the charged work of locating the mapping: executing handler code
// through the instruction caches (software-managed TLBs only), loading
// PTEs through the data caches and — for bottom-up virtual tables —
// through the data TLB, taking nested exceptions, and inserting the
// translation into the right TLB partition.
package mmu

import (
	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/stats"
)

// Machine is the view of the simulated machine a walker manipulates. The
// simulation engine implements it.
type Machine interface {
	// ExecHandler simulates executing n handler instructions starting at
	// page-aligned pc: it charges n cycles to comp (the handler's base
	// cost at one instruction per cycle), and, if fetchesCode is true
	// (software-managed TLB/cache schemes), runs each instruction fetch
	// through the instruction caches, charging handler-L2/handler-MEM
	// for misses. Hardware-walked schemes pass fetchesCode=false and an
	// n equal to their state-machine cycle count.
	ExecHandler(comp stats.Component, pc uint64, n int, fetchesCode bool)

	// PTELoad performs a data reference to a page-table entry at address
	// a (virtual or unmapped), charging l2c on an L1 D-cache miss and
	// memc on an L2 D-cache miss, and returns the satisfying level.
	PTELoad(a uint64, l2c, memc stats.Component) cache.Level

	// DTLBLookup probes the data TLB for vpn in address space asid (a
	// handler's load of a virtually-addressed PTE), with full
	// statistics.
	DTLBLookup(asid uint8, vpn uint64) bool
	// DTLBInsert inserts a user-level translation into the data TLB.
	DTLBInsert(asid uint8, vpn uint64)
	// DTLBInsertProtected inserts a root/kernel-level translation into
	// the data TLB's protected partition (or main partition if the TLB
	// is unpartitioned).
	DTLBInsertProtected(asid uint8, vpn uint64)
	// ITLBInsert inserts a user-level translation into the instruction
	// TLB.
	ITLBInsert(asid uint8, vpn uint64)

	// Interrupt records that the VM system took a precise interrupt.
	Interrupt()
}

// Refill is one memory-management organization's miss-handling mechanism.
type Refill interface {
	// Name returns the organization name ("ultrix", "intel", …).
	Name() string
	// UsesTLB reports whether the organization translates through TLBs
	// (false for the software-managed-cache organizations).
	UsesTLB() bool
	// ProtectedSlots returns how many TLB slots the organization
	// reserves for root-level PTEs (16 for the MIPS-style partitioned
	// TLBs, 0 otherwise).
	ProtectedSlots() int
	// ASIDsInTLB reports whether the organization's TLB entries carry
	// address-space ids (MIPS ASIDs, PA-RISC space ids). Organizations
	// without them (the classical x86) must flush their TLBs on every
	// context switch.
	ASIDsInTLB() bool
	// CacheBlind reports whether the walker's calls on the Machine never
	// depend on the level PTELoad returns: given the same sequence of
	// misses and TLB answers it makes the same calls whatever the caches
	// hold. The engine runs the translation of a cache-blind
	// organization once for many cache geometries (see sim.SimulateGroup);
	// TestCacheBlindMarking pins the property for every bundled machine.
	CacheBlind() bool
	// HandleMiss services a translation miss for virtual address va in
	// address space asid. For TLB-based organizations it is invoked on
	// an I-TLB miss (instr=true) or D-TLB miss (instr=false) and must
	// insert the translation. For no-TLB organizations it is invoked on
	// a user L2 cache miss.
	HandleMiss(m Machine, asid uint8, va uint64, instr bool)
}

// Handler code placement: distinct page-aligned code segments per handler
// (paper: "the beginning of each section of handler code is aligned on a
// page boundary"). Indices into addr.HandlerPC.
const (
	hUltrixUser = iota
	hUltrixRoot
	hMachUser
	hMachKernel
	hMachRoot
	hPARISC
	hNoTLBUser
	hNoTLBRoot
	hClustered
)

// meta carries the organization metadata every walker reports through the
// Refill interface. Build fills it from a machine.Spec, which is how one
// walker implementation serves many declared machines.
type meta struct {
	name       string
	usesTLB    bool
	protected  int
	tagged     bool
	cacheBlind bool
}

// Name returns the organization name.
func (m meta) Name() string { return m.name }

// UsesTLB reports whether the organization translates through TLBs.
func (m meta) UsesTLB() bool { return m.usesTLB }

// ProtectedSlots returns the TLB slots reserved for root-level PTEs.
func (m meta) ProtectedSlots() int { return m.protected }

// ASIDsInTLB reports whether TLB entries carry address-space ids.
func (m meta) ASIDsInTLB() bool { return m.tagged }

// CacheBlind reports whether the walker ignores the level PTELoad
// returns.
func (m meta) CacheBlind() bool { return m.cacheBlind }

// AvgChainLength returns the average collision-chain length of the
// hashed page table r walks, or 0 when r walks no hashed table.
func AvgChainLength(r Refill) float64 {
	switch w := r.(type) {
	case *PARISC:
		return w.pt.AverageChainLength()
	case *PowerPC:
		return w.pt.AverageChainLength()
	case *Clustered:
		return w.pt.AverageChainLength()
	default:
		return 0
	}
}

// insertUser routes the final translation to the right TLB.
func insertUser(m Machine, asid uint8, va uint64, instr bool) {
	if instr {
		m.ITLBInsert(asid, addr.VPN(va))
	} else {
		m.DTLBInsert(asid, addr.VPN(va))
	}
}
