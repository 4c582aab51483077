package main

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Input sizes. A campaign point replays a whole trace, so these set the
// work per point; the engine's default warmup (200k instructions) is
// replayed but not charged, so statistics start after it.
const (
	singleRefs = 1_000_000 // per single-program trace
	mcRefs     = 2_000_000 // the 4-core multiprogram trace, all cores together
	mcCores    = 4
	mcQuantum  = 50_000 // vmtrace's default scheduling quantum
	mcFrames   = 1024   // a frame budget well below the mix's footprint, so policies evict
	// seedClasses is how many distinct inputs the --seed argument maps
	// onto; canaries.json records the expected outputs of each.
	seedClasses = 16
)

var (
	paperVMs = []string{"ultrix", "mach", "intel", "pa-risc", "notlb"}
	mcVMs    = []string{"ultrix", "intel", "pa-risc"}
	// random first: its points are the campaign's longest, and starting
	// them first keeps two workers evenly loaded to the end.
	mcPolicies = []string{"random", "lru", "clock"}
	mcBenches  = []string{"gcc", "vortex", "ijpeg", "compress"}
)

// inputSeed maps the benchmark's --seed onto the input seed that drives
// trace synthesis and the simulator: the same argument always gives the
// same inputs, and every input seed has recorded canaries.
func inputSeed(arg int64) uint64 {
	return uint64(((arg%seedClasses)+seedClasses)%seedClasses) + 1
}

// traceSpec is one synthesized input trace.
type traceSpec struct {
	name  string // file stem and canary key
	bench string // single-program benchmark; "" selects the multicore mix
}

func (t traceSpec) path(dir string) string { return filepath.Join(dir, t.name+".vmtrc") }

func (t traceSpec) refs() int {
	if t.bench == "" {
		return mcRefs
	}
	return singleRefs
}

// vmtraceArgs synthesizes and encodes the trace with the CLI.
func (t traceSpec) vmtraceArgs(seed uint64, out string) []string {
	args := []string{"-n", strconv.Itoa(t.refs()), "-seed", strconv.FormatUint(seed, 10), "-o", out, "-convert"}
	if t.bench == "" {
		return append(args, "-benches", strings.Join(mcBenches, ","), "-cores", strconv.Itoa(mcCores),
			"-quantum", strconv.Itoa(mcQuantum))
	}
	return append(args, "-bench", t.bench)
}

// generate builds the same trace in-process.
func (t traceSpec) generate(seed uint64) (*trace.Trace, error) {
	if t.bench == "" {
		return workload.Multicore(mcBenches, seed, mcCores, mcRefs, mcQuantum)
	}
	p, err := workload.ByName(t.bench)
	if err != nil {
		return nil, err
	}
	return workload.Generate(p, seed, singleRefs), nil
}

var (
	gccTrace    = traceSpec{name: "gcc", bench: "gcc"}
	vortexTrace = traceSpec{name: "vortex", bench: "vortex"}
	mcTrace     = traceSpec{name: "mc4"}
)

// campaign is one vmsweep invocation: a trace and a configuration space,
// given both as CLI flags and as the sweep.Space those flags build.
type campaign struct {
	trace traceSpec
	flags []string
	space sweep.Space
}

var (
	paperSpace = sweep.Space{Base: sim.Default(paperVMs[0]), VMs: paperVMs,
		L1Sizes: sweep.PaperL1Sizes(), L1Lines: sweep.PaperLineSizes()}
	paperFlags = []string{"-vms", strings.Join(paperVMs, ","), "-l1", "paper", "-l1lines", "paper"}
	mcSpace    = func() sweep.Space {
		base := sim.Default(mcVMs[0])
		base.MemFrames = mcFrames
		return sweep.Space{Base: base, VMs: mcVMs, Cores: []int{mcCores}, OSPolicies: mcPolicies}
	}()
	mcFlags = []string{"-vms", strings.Join(mcVMs, ","), "-cores", strconv.Itoa(mcCores),
		"-ospolicies", strings.Join(mcPolicies, ","), "-memframes", strconv.Itoa(mcFrames)}
)

// configs is the campaign's point list for one input seed, in the order
// vmsweep runs and prints them.
func (c campaign) configs(seed uint64) []sim.Config {
	s := c.space
	s.Base.Seed = seed
	return s.Configs()
}

// sweepArgs are the vmsweep arguments of the campaign.
func (c campaign) sweepArgs(seed uint64, dir string, workers int) []string {
	args := append([]string{}, c.flags...)
	return append(args, "-tracefile", c.trace.path(dir), "-seed", strconv.FormatUint(seed, 10),
		"-workers", strconv.Itoa(workers))
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name      string
	campaigns []campaign
	// remote runs the campaigns against a vmserved instead of locally and
	// adds the warm-cache and streaming phases.
	remote bool
}

func (w workloadDef) traces() []traceSpec {
	var out []traceSpec
	for _, c := range w.campaigns {
		out = append(out, c.trace)
	}
	return out
}

// workloads stress different layers, so a change to one layer shows on
// the workload that exercises it and not on one that bypasses it.
var workloads = []workloadDef{
	{
		// The repository's main use: engine replay and the TLB, walker
		// and cache miss paths; no kernel, result cache or HTTP.
		name: "paper-sweep",
		campaigns: []campaign{
			{trace: gccTrace, flags: paperFlags, space: paperSpace},
			{trace: vortexTrace, flags: paperFlags, space: paperSpace},
		},
	},
	{
		// Cluster Step replay and kernel evictions under a frame budget,
		// with little single-core runPhase.
		name:      "multicore-paging",
		campaigns: []campaign{{trace: mcTrace, flags: mcFlags, space: mcSpace}},
	},
	{
		// Cold writes and warm reads of the result cache; the warm
		// campaigns do almost no simulation, so HTTP, wire codec, server
		// and client dominate them; streams reach the engine via Feed.
		name:      "service",
		campaigns: []campaign{{trace: gccTrace, flags: paperFlags, space: paperSpace}},
		remote:    true,
	},
}

func lookupWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// streamConfigs are the configurations of the concurrent /v1/stream
// sessions, one per worker: the default single-core machine for each of
// the first paper organizations, as `vmsim -vm X` builds it.
func streamConfigs(seed uint64, n int) []sim.Config {
	out := make([]sim.Config, n)
	for i := range out {
		out[i] = sim.Default(paperVMs[i%len(paperVMs)])
		out[i].Seed = seed
	}
	return out
}
