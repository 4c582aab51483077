package sim

import (
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// hardwiredRefill constructs vm's walker exactly as the pre-registry
// engine did — through the paper-default constructors, bypassing the
// machine specs entirely.
func hardwiredRefill(vm string, phys *mem.Phys) (mmu.Refill, error) {
	switch vm {
	case VMBase:
		return nil, nil
	case VMUltrix:
		return mmu.NewUltrix(phys)
	case VMMach:
		return mmu.NewMach(phys)
	case VMIntel:
		return mmu.NewIntel(phys)
	case VMPARISC:
		return mmu.NewPARISC(phys)
	case VMNoTLB:
		return mmu.NewNoTLB(phys)
	case VMHWMIPS:
		return mmu.NewHWMIPS(phys)
	case VMPowerPC:
		return mmu.NewPowerPC(phys)
	case VMSPUR:
		return mmu.NewSPUR(phys)
	case VMPFSMHier:
		return mmu.NewPFSM(phys, mmu.PFSMHierarchical, 0)
	case VMPFSMHashed:
		return mmu.NewPFSM(phys, mmu.PFSMHashed, 0)
	case VMClustered:
		return mmu.NewClustered(phys)
	}
	panic("unknown vm " + vm)
}

// runToEnd replays tr through e and returns the final counters and
// machine-state digest.
func runToEnd(t *testing.T, e *Engine, tr *trace.Trace) (stats.Counters, Digest) {
	t.Helper()
	if err := e.Begin(tr); err != nil {
		t.Fatal(err)
	}
	for i := range tr.Refs {
		if err := e.Step(&tr.Refs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return e.Snapshot(), e.Digest()
}

// TestRegistryBuildBitIdentity is the refactor's acceptance gate: for
// every classic machine, the engine built through the machine registry
// (NewEngine → spec → mmu.Build) must be bit-identical — every counter,
// every resident entry — to one built through the organization's
// hardwired paper constructor.
func TestRegistryBuildBitIdentity(t *testing.T) {
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.Generate(p, 7, 30_000)
	for _, vm := range append(PaperVMs(), HybridVMs()...) {
		vm := vm
		t.Run(vm, func(t *testing.T) {
			t.Parallel()
			cfg := Default(vm)
			reg, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			refill, err := hardwiredRefill(vm, mem.New(cfg.PhysMemBytes))
			if err != nil {
				t.Fatal(err)
			}
			hard, err := NewEngineWithRefill(cfg, refill)
			if err != nil {
				t.Fatal(err)
			}
			regC, regD := runToEnd(t, reg, tr)
			hardC, hardD := runToEnd(t, hard, tr)
			if !reflect.DeepEqual(regC, hardC) {
				t.Errorf("counters diverge:\nregistry:  %+v\nhardwired: %+v", regC, hardC)
			}
			if regD != hardD {
				t.Errorf("machine-state digests diverge:\nregistry:  %+v\nhardwired: %+v", regD, hardD)
			}
		})
	}
}
