package check

import (
	"fmt"

	"repro/internal/mmu"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// This file holds the cross-run conservation laws: properties that need
// more than one engine (or more than one run) to state, complementing
// the per-reference invariants sim.Config.CheckInvariants asserts
// inside a single engine.

// nullRefill is a TLB refill that services every miss for free: no
// handler, no PTE loads, no interrupts — just the translation inserted.
// Running any configuration with it must be indistinguishable, on every
// MCPI observable, from the BASE organization: the VM system did work
// but charged nothing and touched nothing the application can see.
type nullRefill struct{}

func (nullRefill) Name() string        { return "null" }
func (nullRefill) UsesTLB() bool       { return true }
func (nullRefill) ProtectedSlots() int { return 0 }
func (nullRefill) ASIDsInTLB() bool    { return true }
func (nullRefill) CacheBlind() bool    { return true }

func (nullRefill) HandleMiss(m mmu.Machine, asid uint8, va uint64, instr bool) {
	if instr {
		m.ITLBInsert(asid, va>>refPageShift)
	} else {
		m.DTLBInsert(asid, va>>refPageShift)
	}
}

// VerifyBaseEquivalence proves the BASE-equality law for cfg over tr:
// cfg's machine, run with zero-cost handlers and an always-refilled
// TLB, must report exactly BASE's MCPI break-down, zero VMCPI, and zero
// interrupts. It isolates the measurement plumbing: if charging,
// warmup, or cache routing treated VM-enabled runs differently from
// BASE in any way beyond the walks themselves, this fails.
func VerifyBaseEquivalence(cfg sim.Config, tr *trace.Trace) error {
	zeroEng, err := sim.NewEngineWithRefill(cfg, nullRefill{})
	if err != nil {
		return err
	}
	zero, err := zeroEng.Run(tr)
	if err != nil {
		return err
	}
	baseCfg := cfg
	baseCfg.VM = sim.VMBase
	base, err := sim.Simulate(baseCfg, tr)
	if err != nil {
		return err
	}

	if zero.Counters.UserInstrs != base.Counters.UserInstrs {
		return fmt.Errorf("check: base equivalence (%s): user instructions %d != BASE's %d",
			cfg.Label(), zero.Counters.UserInstrs, base.Counters.UserInstrs)
	}
	for _, c := range stats.MCPIComponents() {
		if zero.Counters.Events[c] != base.Counters.Events[c] ||
			zero.Counters.Cycles[c] != base.Counters.Cycles[c] {
			return fmt.Errorf("check: base equivalence (%s): %s = %d events/%d cycles, BASE has %d/%d",
				cfg.Label(), c, zero.Counters.Events[c], zero.Counters.Cycles[c],
				base.Counters.Events[c], base.Counters.Cycles[c])
		}
	}
	if vmcpi := zero.Counters.VMCPI(); vmcpi != 0 {
		return fmt.Errorf("check: base equivalence (%s): zero-cost refill reported VMCPI %g, want 0",
			cfg.Label(), vmcpi)
	}
	if zero.Counters.Interrupts != 0 {
		return fmt.Errorf("check: base equivalence (%s): zero-cost refill took %d interrupts, want 0",
			cfg.Label(), zero.Counters.Interrupts)
	}
	return nil
}

// VerifyPrefixConsistency proves two laws at once over tr for cfg:
//
//   - Interrupt (and every other) counts are monotone non-decreasing in
//     trace length: each Step can only add.
//   - Simulation is prefix-consistent: for each cut k, a fresh engine
//     run over the first k references reports exactly the counters the
//     full run had after its k-th Step. Truncating a trace never
//     changes history.
//
// Warmup is forced to zero: the warmup boundary is a function of trace
// length, so prefixes of a warmed-up run measure different windows by
// design.
func VerifyPrefixConsistency(cfg sim.Config, tr *trace.Trace, cuts []int) error {
	cfg.WarmupInstrs = 0
	eng, err := sim.NewEngine(cfg)
	if err != nil {
		return err
	}
	if err := eng.Begin(tr); err != nil {
		return err
	}
	wantSnap := make(map[int]bool, len(cuts))
	for _, k := range cuts {
		if k < 1 || k > len(tr.Refs) {
			return fmt.Errorf("check: cut %d outside trace of %d refs", k, len(tr.Refs))
		}
		wantSnap[k] = true
	}
	at := make(map[int]stats.Counters, len(cuts))
	var prevInterrupts uint64
	for i := range tr.Refs {
		if err := eng.Step(&tr.Refs[i]); err != nil {
			return err
		}
		snap := eng.Snapshot()
		if snap.Interrupts < prevInterrupts {
			return fmt.Errorf("check: %s: interrupts decreased from %d to %d at ref %d",
				cfg.Label(), prevInterrupts, snap.Interrupts, i)
		}
		prevInterrupts = snap.Interrupts
		if wantSnap[i+1] {
			at[i+1] = snap
		}
	}
	for _, k := range cuts {
		want, ok := at[k]
		if !ok {
			return fmt.Errorf("check: cut %d outside trace of %d refs", k, len(tr.Refs))
		}
		prefix := &trace.Trace{Name: tr.Name, Refs: tr.Refs[:k]}
		res, err := sim.Simulate(cfg, prefix)
		if err != nil {
			return err
		}
		if field, got, w, same := firstCounterDiff(res.Counters, want); !same {
			return fmt.Errorf("check: %s: prefix of %d refs reports %s=%d, full run had %d at that point",
				cfg.Label(), k, field, got, w)
		}
	}
	return nil
}
