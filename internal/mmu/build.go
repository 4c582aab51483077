package mmu

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/ptable"
)

// Build constructs the walker a machine spec declares over phys; it is
// the only way a walker is made. The dispatch is (refill kind ×
// page-table organization) → walker implementation, with a pfsm refill
// building the same walker as a hardware one; the spec's cost model
// parameterizes handler lengths and walk cycles, and its TLB section
// parameterizes the metadata the walker reports (name, protected slots,
// ASID tagging). A nil refill with a nil error means the spec declares
// no VM system (the BASE machine).
//
// Build validates the spec first, so the combination cases below can
// assume a buildable shape; an unbuildable spec never reaches them. A
// page table that does not fit phys returns the reservation's error,
// which wraps simerr.ErrMemExhausted.
func Build(spec *machine.Spec, phys *mem.Phys) (Refill, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Refill.Kind == machine.RefillNone {
		return nil, nil
	}

	md := meta{
		name:    spec.Name,
		usesTLB: spec.UsesTLB(),
		tagged:  spec.TLB.ASIDTagged,
		// Only the disjunct-table walkers branch on a PTE load's level:
		// a UPTE load that misses the L2 nests into the root walk.
		cacheBlind: spec.PageTable.Kind != machine.PTDisjunctTwoTier,
	}
	if l1, ok := spec.L1(); ok {
		md.protected = l1.ProtectedSlots
	}
	c := spec.Costs
	sw := spec.Refill.Kind == machine.RefillSoftware

	switch spec.PageTable.Kind {
	case machine.PTTwoTierBottomUp:
		pt, err := ptable.NewUltrix(phys)
		if err != nil {
			return nil, err
		}
		if sw {
			return &Ultrix{
				meta:       md,
				pt:         pt,
				userInstrs: c.UserHandlerInstrs,
				rootInstrs: c.RootHandlerInstrs,
			}, nil
		}
		return &HWMIPS{
			meta:         md,
			pt:           pt,
			walkCycles:   c.WalkCycles,
			mappedCycles: c.MappedWalkCycles,
		}, nil
	case machine.PTThreeTierBottomUp:
		pt, admin, err := newMachTables(phys)
		if err != nil {
			return nil, err
		}
		return &Mach{
			meta:         md,
			pt:           pt,
			admin:        admin,
			userInstrs:   c.UserHandlerInstrs,
			kernelInstrs: c.KernelHandlerInstrs,
			rootInstrs:   c.RootHandlerInstrs,
			adminLoads:   c.RootAdminLoads,
		}, nil
	case machine.PTTwoTierTopDown:
		pt, err := ptable.NewIntel(phys)
		if err != nil {
			return nil, err
		}
		return &Intel{
			meta:       md,
			pt:         pt,
			walkCycles: c.WalkCycles,
		}, nil
	case machine.PTHashedInverted:
		pt, err := ptable.NewPARISC(phys)
		if err != nil {
			return nil, err
		}
		if sw {
			return &PARISC{
				meta:          md,
				pt:            pt,
				handlerInstrs: c.UserHandlerInstrs,
			}, nil
		}
		return &PowerPC{
			meta:       md,
			pt:         pt,
			walkCycles: c.WalkCycles,
		}, nil
	case machine.PTClustered:
		pt, err := ptable.NewClustered(phys)
		if err != nil {
			return nil, err
		}
		return &Clustered{
			meta:          md,
			pt:            pt,
			handlerInstrs: c.UserHandlerInstrs,
		}, nil
	case machine.PTDisjunctTwoTier:
		pt, err := ptable.NewNoTLB(phys)
		if err != nil {
			return nil, err
		}
		if sw {
			return &NoTLB{
				meta:       md,
				pt:         pt,
				userInstrs: c.UserHandlerInstrs,
				rootInstrs: c.RootHandlerInstrs,
			}, nil
		}
		return &SPUR{
			meta:       md,
			pt:         pt,
			walkCycles: c.WalkCycles,
			rootCycles: c.RootWalkCycles,
		}, nil
	default:
		// Validate admits only the kinds above; reaching here means the
		// dispatch table and the validator have drifted apart.
		return nil, fmt.Errorf("mmu: no walker for page table %q with %s refill",
			spec.PageTable.Kind, spec.Refill.Kind)
	}
}
