package mmu

import (
	"repro/internal/addr"
	"repro/internal/mem"
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

// NewClustered builds the walker over a fresh clustered table in phys
// with the PA-RISC handler length and an unpartitioned, tagged TLB.
func NewClustered(phys *mem.Phys) (*Clustered, error) {
	pt, err := ptable.NewClustered(phys)
	if err != nil {
		return nil, err
	}
	return &Clustered{
		meta:          meta{name: ptable.NameClustered, usesTLB: true, tagged: true},
		pt:            pt,
		handlerInstrs: PARISCHandlerInstrs,
	}, nil
}

// Table exposes the clustered table for chain statistics.
func (c *Clustered) Table() *ptable.Clustered { return c.pt }

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
