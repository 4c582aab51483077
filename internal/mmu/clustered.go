package mmu

import (
	"repro/internal/addr"
	"repro/internal/ptable"
	"repro/internal/stats"
)

// Clustered is the clustered/subblocked hashed-page-table organization
// (Talluri & Hill style) on a software-managed TLB: the same
// twenty-instruction handler shape as PA-RISC, but walking a table whose
// entries each map a cluster of consecutive pages — an organization the
// paper's era proposed to combine the inverted table's density with the
// hierarchical table's spatial locality.
type Clustered struct {
	meta
	pt            *ptable.Clustered
	handlerInstrs int
}

// HandleMiss hashes the faulting cluster and walks the chain; chain
// element loads are charged like PA-RISC's.
func (c *Clustered) HandleMiss(m Machine, asid uint8, va uint64, instr bool) {
	m.Interrupt()
	m.ExecHandler(stats.UHandler, addr.HandlerPC(hClustered), c.handlerInstrs, true)
	for _, a := range c.pt.ChainAddrs(asid, va) {
		m.PTELoad(a, stats.UPTEL2, stats.UPTEMem)
	}
	insertUser(m, asid, va, instr)
}
