package mmu

import (
	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/ptable"
	"repro/internal/stats"
)

// This file implements the organizations the paper interpolates rather
// than simulates directly (§4.2: "We can use these results to interpolate
// for the costs of other VM organizations, such as an inverted page table
// with a hardware-managed TLB, a MIPS-style page table with a
// hardware-managed TLB, or a system with no TLB but a hardware-walked
// page table (as in SPUR)"). The programmable finite state machine its
// conclusions recommend ("A likely future memory-management design would
// use a programmable finite state machine that walks the page table in a
// user-defined manner") needs no walker of its own: its walk is the
// hardware walk of whichever table it is programmed for, at a
// software-defined cycle cost, so Build gives a pfsm refill the Intel or
// PowerPC walker.

// HWMIPS is a MIPS-style bottom-up hierarchical table walked by a
// hardware state machine: no interrupt, no instruction-cache footprint,
// but the UPTE reference still translates through the (partitioned)
// D-TLB, falling back to a physical root-table access on a nested miss.
// The hardware still wires UPT mappings into protected slots, as the
// MIPS convention requires.
type HWMIPS struct {
	meta
	pt *ptable.Ultrix
	// walkCycles is the full-walk cost (root level consulted);
	// mappedCycles the cheaper cost when the UPT page is TLB-resident.
	walkCycles   int
	mappedCycles int
}

// HandleMiss performs the hardware bottom-up walk.
func (h *HWMIPS) HandleMiss(m Machine, asid uint8, va uint64, instr bool) {
	upte := h.pt.UPTEAddr(asid, va)
	if m.DTLBLookup(asid, addr.VPN(upte)) {
		m.ExecHandler(stats.UHandler, 0, h.mappedCycles, false)
	} else {
		m.ExecHandler(stats.UHandler, 0, h.walkCycles, false)
		m.PTELoad(h.pt.RPTEAddr(asid, va), stats.RPTEL2, stats.RPTEMem)
		m.DTLBInsertProtected(asid, addr.VPN(upte))
	}
	m.PTELoad(upte, stats.UPTEL2, stats.UPTEMem)
	insertUser(m, asid, va, instr)
}

// PowerPC merges the two winners of the paper's comparison — "the best
// solution would be to merge these two and use a hardware-managed TLB
// with an inverted page table. Note that this is exactly what has been
// done in the PowerPC" — a hardware state machine walking the hashed
// inverted table in physical space. TLB entries are tagged
// (segment-register-derived VSIDs).
type PowerPC struct {
	meta
	pt         *ptable.PARISC
	walkCycles int
}

// HandleMiss hashes in hardware and walks the chain with physical loads.
func (p *PowerPC) HandleMiss(m Machine, asid uint8, va uint64, instr bool) {
	m.ExecHandler(stats.UHandler, 0, p.walkCycles, false)
	for _, a := range p.pt.ChainAddrs(asid, va) {
		m.PTELoad(a, stats.UPTEL2, stats.UPTEMem)
	}
	insertUser(m, asid, va, instr)
}

// SPUR is the no-TLB, hardware-walked organization (the paper cites the
// SPUR multiprocessor): user-level L2 misses trigger a hardware walk of
// the disjunct table — the NOTLB data path without interrupts or handler
// instruction fetches.
type SPUR struct {
	meta
	pt *ptable.NoTLB
	// walkCycles is the in-cache translation cost; rootCycles the
	// nested hardware walk when the UPTE load misses the L2.
	walkCycles int
	rootCycles int
}

// HandleMiss performs the hardware in-cache translation.
func (s *SPUR) HandleMiss(m Machine, asid uint8, va uint64, instr bool) {
	m.ExecHandler(stats.UHandler, 0, s.walkCycles, false)
	if lvl := m.PTELoad(s.pt.UPTEAddr(asid, va), stats.UPTEL2, stats.UPTEMem); lvl == cache.Memory {
		m.ExecHandler(stats.RHandler, 0, s.rootCycles, false)
		m.PTELoad(s.pt.RPTEAddr(asid, va), stats.RPTEL2, stats.RPTEMem)
	}
}
