package mmu

import (
	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/ptable"
	"repro/internal/stats"
)

// This file implements the organizations the paper interpolates rather
// than simulates directly (§4.2: "We can use these results to interpolate
// for the costs of other VM organizations, such as an inverted page table
// with a hardware-managed TLB, a MIPS-style page table with a
// hardware-managed TLB, or a system with no TLB but a hardware-walked
// page table (as in SPUR)") and the programmable finite state machine its
// conclusions recommend ("A likely future memory-management design would
// use a programmable finite state machine that walks the page table in a
// user-defined manner").

// Organization names for the hybrid walkers.
const (
	NameHWMIPS  = "hw-mips"
	NamePowerPC = "powerpc"
	NameSPUR    = "spur"
	NamePFSM    = "pfsm"
)

// HWMIPS is a MIPS-style bottom-up hierarchical table walked by a
// hardware state machine: no interrupt, no instruction-cache footprint,
// but the UPTE reference still translates through the (partitioned)
// D-TLB, falling back to a physical root-table access on a nested miss.
type HWMIPS struct {
	meta
	pt *ptable.Ultrix
	// walkCycles is the full-walk cost (root level consulted);
	// mappedCycles the cheaper cost when the UPT page is TLB-resident.
	walkCycles   int
	mappedCycles int
}

// NewHWMIPS builds the walker over a fresh Ultrix-style table in phys:
// four cycles when the UPT page is already mapped, seven (the Intel
// figure) when the root level must be consulted. The hardware still
// wires UPT mappings into protected slots, as the MIPS convention
// requires.
func NewHWMIPS(phys *mem.Phys) (*HWMIPS, error) {
	pt, err := ptable.NewUltrix(phys)
	if err != nil {
		return nil, err
	}
	return &HWMIPS{
		meta:         meta{name: NameHWMIPS, usesTLB: true, protected: 16, tagged: true},
		pt:           pt,
		walkCycles:   IntelWalkCycles,
		mappedCycles: 4,
	}, nil
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

// NewPowerPC builds the walker over a fresh hashed table in phys.
func NewPowerPC(phys *mem.Phys) (*PowerPC, error) {
	pt, err := ptable.NewPARISC(phys)
	if err != nil {
		return nil, err
	}
	return &PowerPC{
		meta:       meta{name: NamePowerPC, usesTLB: true, tagged: true},
		pt:         pt,
		walkCycles: IntelWalkCycles,
	}, nil
}

// Table exposes the hashed table for chain statistics.
func (p *PowerPC) Table() *ptable.PARISC { return p.pt }

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

// NewSPUR builds the walker over a fresh disjunct table in phys.
// ASIDsInTLB is vacuously true (ASID-tagged virtual caches).
func NewSPUR(phys *mem.Phys) (*SPUR, error) {
	pt, err := ptable.NewNoTLB(phys)
	if err != nil {
		return nil, err
	}
	return &SPUR{
		meta:       meta{name: NameSPUR, usesTLB: false, tagged: true},
		pt:         pt,
		walkCycles: IntelWalkCycles,
		rootCycles: 4,
	}, nil
}

// HandleMiss performs the hardware in-cache translation.
func (s *SPUR) HandleMiss(m Machine, asid uint8, va uint64, instr bool) {
	m.ExecHandler(stats.UHandler, 0, s.walkCycles, false)
	if lvl := m.PTELoad(s.pt.UPTEAddr(asid, va), stats.UPTEL2, stats.UPTEMem); lvl == cache.Memory {
		m.ExecHandler(stats.RHandler, 0, s.rootCycles, false)
		m.PTELoad(s.pt.RPTEAddr(asid, va), stats.RPTEL2, stats.RPTEMem)
	}
}

// PFSMTable selects the page-table format a programmable FSM walks.
type PFSMTable int

// PFSM table formats.
const (
	// PFSMHierarchical walks an x86-style two-tier physical table.
	PFSMHierarchical PFSMTable = iota
	// PFSMHashed walks a PA-RISC-style hashed inverted table.
	PFSMHashed
)

// PFSM is the programmable finite state machine of the paper's
// conclusions: a hardware walker whose table format and per-walk cycle
// cost are software-defined, giving "the flexibility of alternate page
// table organizations … and yet no interrupt or I-cache overhead".
// TLB entries are tagged: a from-scratch design would tag its entries.
type PFSM struct {
	meta
	table  PFSMTable
	cycles int
	hier   *ptable.Intel
	hashed *ptable.PARISC
}

// NewPFSM builds a programmable walker for the given table format at the
// given per-walk microcode cost (cycles <= 0 defaults to the Intel
// seven).
func NewPFSM(phys *mem.Phys, table PFSMTable, cycles int) (*PFSM, error) {
	if cycles <= 0 {
		cycles = IntelWalkCycles
	}
	p := &PFSM{
		meta:   meta{name: NamePFSM, usesTLB: true, tagged: true},
		table:  table,
		cycles: cycles,
	}
	var err error
	switch table {
	case PFSMHashed:
		p.hashed, err = ptable.NewPARISC(phys)
	default:
		p.hier, err = ptable.NewIntel(phys)
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// HandleMiss runs the microcoded walk for the configured format.
func (p *PFSM) HandleMiss(m Machine, asid uint8, va uint64, instr bool) {
	m.ExecHandler(stats.UHandler, 0, p.cycles, false)
	switch p.table {
	case PFSMHashed:
		for _, a := range p.hashed.ChainAddrs(asid, va) {
			m.PTELoad(a, stats.UPTEL2, stats.UPTEMem)
		}
	default:
		m.PTELoad(p.hier.RPTEAddr(asid, va), stats.RPTEL2, stats.RPTEMem)
		m.PTELoad(p.hier.UPTEAddr(asid, va), stats.UPTEL2, stats.UPTEMem)
	}
	insertUser(m, asid, va, instr)
}
