package experiments

import (
	"fmt"
	"strings"

	"repro/internal/addr"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "tab1",
		Title: "Table 1: Simulation details (the evaluated configuration space)",
		Run:   runTab1,
	})
	register(Experiment{
		ID:    "tab2",
		Title: "Table 2: Components of MCPI",
		Run:   runTab2,
	})
	register(Experiment{
		ID:    "tab3",
		Title: "Table 3: Components of VMCPI",
		Run:   runTab3,
	})
	register(Experiment{
		ID:    "tab4",
		Title: "Table 4: Simulated page-table events",
		Run:   runTab4,
	})
}

func runTab1(o Options) (*Report, error) {
	t := report.NewTable("Characteristic", "Range of values simulated")
	sizes := func(vals []int, div int, unit string) string {
		parts := make([]string, len(vals))
		for i, v := range vals {
			parts[i] = fmt.Sprintf("%d%s", v/div, unit)
		}
		return strings.Join(parts, ", ")
	}
	t.AddRow("Benchmarks", strings.Join(workload.Names(), ", ")+" (synthetic SPEC'95 int models)")
	t.AddRow("Cache organizations", "split, direct-mapped, virtually-addressed; blocking, write-allocate, write-through")
	t.AddRow("L1 cache size (per side)", sizes(sweep.PaperL1Sizes(), addr.KB, "KB"))
	t.AddRow("L2 cache size (per side)", sizes(sweep.PaperL2Sizes(), addr.MB, "MB"))
	t.AddRow("Cache linesizes", sizes(sweep.PaperLineSizes(), 1, " bytes"))
	t.AddRow("TLB organizations", "fully associative, random replacement; ULTRIX/MACH reserve 16 protected slots")
	t.AddRow("TLB size", "128-entry I-TLB / 128-entry D-TLB")
	t.AddRow("Page size", fmt.Sprintf("%d KB", addr.PageSize/addr.KB))
	t.AddRow("Cost of interrupt", "10, 50, 200 cycles")
	t.AddRow("VM organizations", strings.Join(sim.PaperVMs(), ", "))
	t.AddRow("Hybrid organizations (§4.2/§5)", strings.Join(sim.HybridVMs(), ", "))
	return &Report{ID: "tab1", Title: "Table 1", Text: t.String(), CSV: t.CSV()}, nil
}

func runTab2(o Options) (*Report, error) {
	t := report.NewTable("Tag", "Cost per")
	t.AddRow("L1i-miss", fmt.Sprintf("%d cycles", stats.L1MissPenalty))
	t.AddRow("L1d-miss", fmt.Sprintf("%d cycles", stats.L1MissPenalty))
	t.AddRow("L2i-miss", fmt.Sprintf("%d cycles", stats.L2MissPenalty))
	t.AddRow("L2d-miss", fmt.Sprintf("%d cycles", stats.L2MissPenalty))
	return &Report{ID: "tab2", Title: "Table 2", Text: t.String(), CSV: t.CSV()}, nil
}

func runTab3(o Options) (*Report, error) {
	desc := map[stats.Component]string{
		stats.UHandler:   "TLB miss (or L2 miss, NOTLB) during application processing invokes the user-level handler",
		stats.UPTEL2:     "UPTE lookup misses the L1 data cache; reference goes to the L2 data cache",
		stats.UPTEMem:    "UPTE lookup misses the L2 data cache; reference goes to main memory",
		stats.KHandler:   "TLB miss during the user-level handler invokes the kernel-level handler",
		stats.KPTEL2:     "KPTE lookup misses the L1 data cache",
		stats.KPTEMem:    "KPTE lookup misses the L2 data cache",
		stats.RHandler:   "TLB miss (or L2 miss) during the user/kernel handler invokes the root-level handler",
		stats.RPTEL2:     "RPTE lookup misses the L1 data cache",
		stats.RPTEMem:    "RPTE lookup misses the L2 data cache",
		stats.HandlerL2:  "handler code misses the L1 instruction cache",
		stats.HandlerMem: "handler code misses the L2 instruction cache",
	}
	cost := map[stats.Component]string{
		stats.UHandler:   "variable (handler length)",
		stats.KHandler:   "variable (handler length)",
		stats.RHandler:   "variable (handler length)",
		stats.UPTEL2:     "20 cycles",
		stats.KPTEL2:     "20 cycles",
		stats.RPTEL2:     "20 cycles",
		stats.HandlerL2:  "20 cycles",
		stats.UPTEMem:    "500 cycles",
		stats.KPTEMem:    "500 cycles",
		stats.RPTEMem:    "500 cycles",
		stats.HandlerMem: "500 cycles",
	}
	t := report.NewTable("Tag", "Cost per", "Description")
	for _, c := range stats.VMCPIComponents() {
		t.AddRow(c.String(), cost[c], desc[c])
	}
	return &Report{ID: "tab3", Title: "Table 3", Text: t.String(), CSV: t.CSV()}, nil
}

func runTab4(o Options) (*Report, error) {
	// The handler costs are read from the bundled machine specs, the
	// same values the walkers are built with.
	var c [5]machine.CostSpec
	for i, vm := range []string{sim.VMUltrix, sim.VMMach, sim.VMIntel, sim.VMPARISC, sim.VMNoTLB} {
		spec, err := machine.Lookup(vm)
		if err != nil {
			return nil, err
		}
		c[i] = spec.Costs
	}
	ultrix, mach, intel, parisc, notlb := c[0], c[1], c[2], c[3], c[4]
	onePTE := func(instrs int) string { return fmt.Sprintf("%d instrs, 1 PTE load", instrs) }
	t := report.NewTable("VM Sim", "User Handler", "Kernel Handler", "Root Handler")
	t.AddRow("ULTRIX", onePTE(ultrix.UserHandlerInstrs), "n.a.", onePTE(ultrix.RootHandlerInstrs))
	t.AddRow("MACH", onePTE(mach.UserHandlerInstrs), onePTE(mach.KernelHandlerInstrs),
		fmt.Sprintf("%d instrs, %d admin loads + 1 PTE load", mach.RootHandlerInstrs, mach.RootAdminLoads))
	t.AddRow("INTEL",
		fmt.Sprintf("%d cycles, 2 PTE loads", intel.WalkCycles), "n.a.", "n.a.")
	t.AddRow("PA-RISC",
		fmt.Sprintf("%d instrs, variable # PTE loads", parisc.UserHandlerInstrs), "n.a.", "n.a.")
	t.AddRow("NOTLB", onePTE(notlb.UserHandlerInstrs), "n.a.", onePTE(notlb.RootHandlerInstrs))
	return &Report{ID: "tab4", Title: "Table 4", Text: t.String(), CSV: t.CSV()}, nil
}
