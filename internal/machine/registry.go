package machine

import (
	"fmt"
	"sort"
	"sync"
)

// paperTLB is the paper's Table 1 first-level TLB: 128 entries per side,
// fully associative, random replacement.
func paperTLB(protected int) TLBSpec {
	return TLBSpec{
		ASIDTagged: true,
		Levels: []TLBLevel{
			{Entries: 128, Assoc: 0, Replacement: "random", ProtectedSlots: protected},
		},
	}
}

// bundled returns the built-in machine specs in presentation order: the
// paper's Table 1 organizations, the §4.2/§5 hybrids, and the two-level-
// TLB extension. The paper machines carry the Table 4 handler costs; the
// golden results in internal/check/golden pin what every one of them
// simulates.
func bundled() []*Spec {
	return []*Spec{
		{
			Name:        "ultrix",
			Description: "DEC Ultrix on MIPS: software-managed partitioned TLB, two-tier table walked bottom-up",
			TLB:         paperTLB(16),
			Refill:      RefillSpec{Kind: RefillSoftware, Trigger: TriggerTLBMiss},
			PageTable:   PageTableSpec{Kind: PTTwoTierBottomUp},
			Costs:       CostSpec{UserHandlerInstrs: 10, RootHandlerInstrs: 20},
		},
		{
			Name:        "mach",
			Description: "Mach on MIPS: software-managed partitioned TLB, three-tier table with a 500-instruction root path",
			TLB:         paperTLB(16),
			Refill:      RefillSpec{Kind: RefillSoftware, Trigger: TriggerTLBMiss},
			PageTable:   PageTableSpec{Kind: PTThreeTierBottomUp},
			Costs:       CostSpec{UserHandlerInstrs: 10, KernelHandlerInstrs: 20, RootHandlerInstrs: 500, RootAdminLoads: 10},
		},
		{
			Name:        "intel",
			Description: "classical x86: hardware-walked two-tier table, untagged TLB flushed on context switch",
			TLB: TLBSpec{
				ASIDTagged: false,
				Levels: []TLBLevel{
					{Entries: 128, Assoc: 0, Replacement: "random"},
				},
			},
			Refill:    RefillSpec{Kind: RefillHardware, Trigger: TriggerTLBMiss},
			PageTable: PageTableSpec{Kind: PTTwoTierTopDown},
			Costs:     CostSpec{WalkCycles: 7},
		},
		{
			Name:        "pa-risc",
			Description: "HP PA-RISC: software-managed unpartitioned TLB, hashed inverted table",
			TLB:         paperTLB(0),
			Refill:      RefillSpec{Kind: RefillSoftware, Trigger: TriggerTLBMiss},
			PageTable:   PageTableSpec{Kind: PTHashedInverted},
			Costs:       CostSpec{UserHandlerInstrs: 20},
		},
		{
			Name:        "notlb",
			Description: "softvm/VMP: no TLB, software translation on every user-level L2 cache miss",
			TLB:         TLBSpec{ASIDTagged: true},
			Refill:      RefillSpec{Kind: RefillSoftware, Trigger: TriggerCacheMiss},
			PageTable:   PageTableSpec{Kind: PTDisjunctTwoTier},
			Costs:       CostSpec{UserHandlerInstrs: 10, RootHandlerInstrs: 20},
		},
		{
			Name:        "base",
			Description: "no VM system at all: the paper's reference machine",
			TLB:         TLBSpec{ASIDTagged: true},
			Refill:      RefillSpec{Kind: RefillNone},
			PageTable:   PageTableSpec{Kind: PTNone},
		},
		{
			Name:        "hw-mips",
			Description: "hybrid: MIPS-style bottom-up table walked by a hardware state machine",
			TLB:         paperTLB(16),
			Refill:      RefillSpec{Kind: RefillHardware, Trigger: TriggerTLBMiss},
			PageTable:   PageTableSpec{Kind: PTTwoTierBottomUp},
			Costs:       CostSpec{WalkCycles: 7, MappedWalkCycles: 4},
		},
		{
			Name:        "powerpc",
			Description: "PowerPC: hardware-walked hashed inverted table, tagged TLB",
			TLB:         paperTLB(0),
			Refill:      RefillSpec{Kind: RefillHardware, Trigger: TriggerTLBMiss},
			PageTable:   PageTableSpec{Kind: PTHashedInverted},
			Costs:       CostSpec{WalkCycles: 7},
		},
		{
			Name:        "spur",
			Description: "SPUR: no TLB, hardware walk of the disjunct table on user-level L2 misses",
			TLB:         TLBSpec{ASIDTagged: true},
			Refill:      RefillSpec{Kind: RefillHardware, Trigger: TriggerCacheMiss},
			PageTable:   PageTableSpec{Kind: PTDisjunctTwoTier},
			Costs:       CostSpec{WalkCycles: 7, RootWalkCycles: 4},
		},
		{
			Name:        "pfsm-hier",
			Description: "programmable FSM walking an x86-style two-tier physical table",
			TLB:         paperTLB(0),
			Refill:      RefillSpec{Kind: RefillPFSM, Trigger: TriggerTLBMiss},
			PageTable:   PageTableSpec{Kind: PTTwoTierTopDown},
			Costs:       CostSpec{WalkCycles: 7},
		},
		{
			Name:        "pfsm-hashed",
			Description: "programmable FSM walking a PA-RISC-style hashed inverted table",
			TLB:         paperTLB(0),
			Refill:      RefillSpec{Kind: RefillPFSM, Trigger: TriggerTLBMiss},
			PageTable:   PageTableSpec{Kind: PTHashedInverted},
			Costs:       CostSpec{WalkCycles: 7},
		},
		{
			Name:        "clustered",
			Description: "Talluri & Hill clustered hashed table on a software-managed TLB",
			TLB:         paperTLB(0),
			Refill:      RefillSpec{Kind: RefillSoftware, Trigger: TriggerTLBMiss},
			PageTable:   PageTableSpec{Kind: PTClustered},
			Costs:       CostSpec{UserHandlerInstrs: 20},
		},
		{
			Name:        "l2tlb",
			Description: "two-level TLB: ULTRIX refill behind a 1024-entry 4-way set-associative unified L2 TLB",
			TLB: TLBSpec{
				ASIDTagged: true,
				Levels: []TLBLevel{
					{Entries: 128, Assoc: 0, Replacement: "random", ProtectedSlots: 16},
					{Entries: 1024, Assoc: 4, Replacement: "random", HitLatency: 2},
				},
			},
			Refill:    RefillSpec{Kind: RefillSoftware, Trigger: TriggerTLBMiss},
			PageTable: PageTableSpec{Kind: PTTwoTierBottomUp},
			Costs:     CostSpec{UserHandlerInstrs: 10, RootHandlerInstrs: 20},
		},
	}
}

// registry holds every known spec by name. Bundled specs are installed at
// package init; Register adds user-defined ones at run time (the CLIs
// register a -machine file's spec so downstream lookups by name resolve).
var registry = struct {
	sync.RWMutex
	specs map[string]*Spec
}{specs: map[string]*Spec{}}

// bundledNames preserves the curated presentation order for Bundled().
var bundledNames []string

func init() {
	for _, s := range bundled() {
		if err := s.Validate(); err != nil {
			panic(fmt.Sprintf("machine: bundled spec %q invalid: %v", s.Name, err))
		}
		registry.specs[s.Name] = s
		bundledNames = append(bundledNames, s.Name)
	}
}

// clone returns an independent copy of s, so callers may mutate lookups
// freely without corrupting the registry.
func clone(s *Spec) *Spec {
	c := *s
	c.TLB.Levels = append([]TLBLevel(nil), s.TLB.Levels...)
	return &c
}

// Names returns every registered machine name, sorted.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]string, 0, len(registry.specs))
	for name := range registry.specs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Bundled returns the built-in specs in presentation order: the paper's
// Table 1 organizations first, then the hybrids, then the two-level-TLB
// extension.
func Bundled() []*Spec {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]*Spec, 0, len(bundledNames))
	for _, name := range bundledNames {
		out = append(out, clone(registry.specs[name]))
	}
	return out
}

// Lookup resolves a registered machine name to a copy of its spec. An
// unknown name's error enumerates what is registered, so a CLI typo
// surfaces the valid values.
func Lookup(name string) (*Spec, error) {
	registry.RLock()
	s, ok := registry.specs[name]
	registry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("machine: unknown machine %q (registered: %v)", name, Names())
	}
	return clone(s), nil
}

// Register validates and installs a spec under its name, replacing any
// previous registration of that name except a bundled one: the bundled
// specs are the pinned ground truth the oracle and golden results build
// on, so shadowing them is an error.
func Register(s *Spec) error {
	if err := s.Validate(); err != nil {
		return err
	}
	for _, name := range bundledNames {
		if name == s.Name {
			return fmt.Errorf("machine: %q is a bundled machine and cannot be replaced", s.Name)
		}
	}
	registry.Lock()
	registry.specs[s.Name] = clone(s)
	registry.Unlock()
	return nil
}
