// Command vmsweep runs a configuration cross-product over one benchmark
// and emits a CSV row per point — the raw data behind the paper's figures,
// for plotting with external tools.
//
// Usage:
//
//	vmsweep -bench gcc -vms ultrix,intel -l1 1024,8192,65536 > gcc.csv
//	vmsweep -bench vortex -vms all -l1 paper -l2 paper -lines paper
//	vmsweep -bench gcc -vms l2tlb -tlb2 256,512,1024,2048 > l2tlb.csv
//	vmsweep -bench gcc -machine custom.json -l1 paper > custom.csv
//	vmsweep -tracefile gcc.trace -vms ultrix -l1 paper
//	vmsweep -bench gcc -vms ultrix,intel -cores 1,2,4 -ospolicies first-touch,lru -memframes 128 > mc.csv
//	vmsweep -bench gcc -vms all -l1 paper -journal gcc.journal > gcc.csv
//	vmsweep -bench gcc -vms all -l1 paper -journal gcc.journal -resume > gcc.csv  # after a crash
//	vmsweep -bench gcc -vms all -l1 paper -progress -manifest gcc.manifest.json > gcc.csv
//	vmsweep -remote http://localhost:8080 -bench gcc -vms all -l1 paper > gcc.csv
//
// Memory: the sweep's footprint is bounded by one shared read-only trace
// (24 bytes per reference — 24MB for a million-instruction trace) plus
// one live engine per worker (cache and TLB arrays, a few hundred KB to
// a few MB each depending on cache sizes); it does not grow with the
// number of configurations, so paper-scale cross-products (thousands of
// points) run in a few hundred MB. To bound memory, bound -n (or the
// replayed trace's length) and -workers. Ctrl-C cancels the sweep:
// in-flight points finish, pending points are dropped, and the rows
// completed so far remain valid CSV on stdout.
//
// Fault tolerance: -journal DIR records every completed point durably;
// -resume replays the journal and re-runs only the remainder, producing
// output identical to an uninterrupted run. -timeout bounds each point,
// -retries/-backoff absorb transient failures (timeouts, panics); a
// point that keeps failing is reported per-category on stderr and the
// tool exits 3 while the healthy rows stay valid.
//
// Observability: -progress reports completed/total, rate, ETA, and
// retried/resumed/failed counts on stderr while the campaign runs;
// -manifest FILE writes an end-of-run JSON manifest (trace sha256,
// configuration count, wall and summed per-point seconds, per-category
// failure counts, exit status) atomically even when the tool exits 3;
// -debug-addr serves net/http/pprof and expvar (including the live
// vmsweep.progress snapshot) over HTTP.
//
// Serving: -remote runs the identical campaign on one or more vmserved
// instances instead of simulating locally, always through the
// fault-tolerant coordinator (internal/coord). The trace is uploaded
// once per worker (content-addressed), points are leased to workers
// along a consistent-hash ring, every point a worker has seen before
// replays from its result cache, and the CSV on stdout is byte-identical
// to a serial local run. A worker that dies, hangs, or partitions
// mid-campaign loses its lease and the points are re-dispatched once it
// or another worker answers; idle workers steal from stragglers;
// -lease-timeout tunes the no-progress deadline. -journal and -resume
// work as they do locally (the journal is the coordinator's durable
// checkpoint: kill vmsweep mid-campaign and re-run with -resume), and a
// killed campaign re-run without them still replays finished points
// from the workers' caches. -timeout/-retries/-backoff are applied by
// each server's own configuration, not these flags:
//
//	vmsweep -remote http://w1:8080,http://w2:8080,http://w3:8080 \
//	        -bench gcc -vms all -l1 paper -journal gcc.journal > gcc.csv
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	mmusim "repro"
	"repro/internal/atomicio"
	"repro/internal/coord"
	"repro/internal/obs"
	"repro/internal/version"
)

func parseInts(s string, paper []int) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	if s == "paper" {
		return paper, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

var (
	paperL1    = []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10}
	paperL2    = []int{1 << 20, 2 << 20, 4 << 20}
	paperLines = []int{16, 32, 64, 128}
)

// campaignManifest is the machine-readable end-of-run record written by
// -manifest: enough to tell what ran, on what input, how long it took,
// and how it ended, without re-parsing stderr.
type campaignManifest struct {
	Schema      int    `json:"schema"`
	Benchmark   string `json:"benchmark"`
	TraceSHA256 string `json:"trace_sha256"`
	TraceRefs   int    `json:"trace_refs"`
	Configs     int    `json:"configs"`
	Workers     int    `json:"workers"`
	// WallSeconds is the campaign's elapsed time; SimSeconds sums the
	// per-point wall-clock durations across all workers (attempts and
	// backoff included), so SimSeconds/WallSeconds approximates the
	// achieved parallelism.
	WallSeconds float64 `json:"wall_seconds"`
	SimSeconds  float64 `json:"sim_seconds"`
	Completed   int     `json:"completed"`
	Resumed     int     `json:"resumed"`
	Retried     int     `json:"retried"`
	Failed      int     `json:"failed"`
	Cancelled   int     `json:"cancelled"`
	// Errors counts quarantined points per taxonomy category
	// (config/trace/timeout/panic/other); cancelled points are tallied
	// separately above.
	Errors     map[string]int `json:"errors_by_category,omitempty"`
	ExitStatus int            `json:"exit_status"`
}

func main() {
	start := time.Now()
	var (
		bench     = flag.String("bench", "gcc", "benchmark")
		vms       = flag.String("vms", "ultrix,mach,intel,pa-risc,notlb", "comma list of organizations, or 'all'")
		machineIn = flag.String("machine", "", "sweep the machine from this spec file (JSON, see MACHINES.md) instead of -vms")
		listVMs   = flag.Bool("list-vms", false, "list every registered machine with its description and exit")
		l1s       = flag.String("l1", "", "comma list of L1 sizes in bytes, or 'paper'")
		l2s       = flag.String("l2", "", "comma list of L2 sizes in bytes, or 'paper'")
		l1lines   = flag.String("l1lines", "", "comma list of L1 linesizes, or 'paper'")
		l2lines   = flag.String("l2lines", "", "comma list of L2 linesizes, or 'paper'")
		tlbs      = flag.String("tlb", "", "comma list of TLB sizes")
		tlb2s     = flag.String("tlb2", "", "comma list of second-level TLB sizes (0 = none)")
		tlb2Ways  = flag.Int("tlb2assoc", 0, "second-level TLB associativity for every point (0 = fully associative)")
		coresFl   = flag.String("cores", "", "comma list of core counts (>1 runs the multicore cluster)")
		osPols    = flag.String("ospolicies", "", "comma list of OS page-allocation policies, from "+fmt.Sprint(mmusim.OSPolicies()))
		frames    = flag.Int("memframes", 0, "physical frame budget in pages for every point (0 = unbounded)")
		shootFl   = flag.Uint64("shootdown", 0, "cycles per remote TLB shootdown for every point (default: the machine spec's)")
		n         = flag.Int("n", 500_000, "trace length in instructions")
		seed      = flag.Uint64("seed", 42, "deterministic seed")
		workers   = flag.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS)")
		traceIn   = flag.String("tracefile", "", "replay this trace file instead of generating -bench")
		dinIn     = flag.String("din", "", "replay this Dinero-format text trace instead of generating -bench")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
		memProf   = flag.String("memprofile", "", "write a pprof allocation profile to this file at exit")
		jdir      = flag.String("journal", "", "journal completed points to this directory (crash-safe, resumable)")
		resumeFl  = flag.Bool("resume", false, "replay -journal before sweeping and skip already-completed points")
		timeout   = flag.Duration("timeout", 0, "per-point deadline (0 = none), e.g. 30s")
		retries   = flag.Int("retries", 0, "extra attempts for transiently-failing points (timeouts, panics)")
		backoff   = flag.Duration("backoff", 100*time.Millisecond, "first retry delay; doubles per attempt")
		progress  = flag.Bool("progress", false, "report live completion/rate/ETA on stderr")
		manifest  = flag.String("manifest", "", "write an end-of-run campaign manifest (JSON) to this file")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
		remote    = flag.String("remote", "", "run the campaign through the fault-tolerant coordinator on these comma-separated vmserved endpoints instead of simulating locally")
		leaseTO   = flag.Duration("lease-timeout", coord.DefaultLeaseTimeout, "with -remote: no-progress deadline before a worker's lease is reclaimed")
		showVer   = flag.Bool("version", false, "print the engine version and exit")
	)
	flag.Parse()
	if *showVer {
		fmt.Println(version.String())
		return
	}
	if *listVMs {
		for _, s := range mmusim.BundledMachines() {
			fmt.Printf("%-12s %s\n", s.Name, s.Description)
		}
		return
	}
	// Record which flags the user actually set: a machine spec seeds the
	// TLB hierarchy, which the TLB flags' defaults must not clobber.
	setFlags := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })

	// cleanups holds abort handlers for in-flight atomic writes: fail()
	// exits with os.Exit, which skips defers, and an uncommitted
	// atomicio.File strands its temporary file unless Closed. Close
	// after Commit is a no-op, so handlers are always safe to run.
	var cleanups []func()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "vmsweep:", err)
		for i := len(cleanups) - 1; i >= 0; i-- {
			cleanups[i]()
		}
		os.Exit(1)
	}

	stopCPUProfile := func() {}
	if *cpuProf != "" {
		f, err := atomicio.Create(*cpuProf)
		if err != nil {
			fail(err)
		}
		cleanups = append(cleanups, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		stopCPUProfile = func() {
			pprof.StopCPUProfile()
			if err := f.Commit(); err != nil {
				fmt.Fprintln(os.Stderr, "vmsweep:", err)
			}
		}
	}
	defer stopCPUProfile()

	if *debugAddr != "" {
		dbg, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			fail(err)
		}
		// Shut the debug listener down on every exit path (fail() and the
		// deliberate non-zero exit below included), instead of abandoning
		// the socket to the process teardown.
		cleanups = append(cleanups, func() { dbg.Close() }) //nolint:errcheck
		defer dbg.Close()                                   //nolint:errcheck
		fmt.Fprintf(os.Stderr, "vmsweep: debug server at http://%s/debug/pprof/ and /debug/vars\n", dbg.Addr)
	}

	var space mmusim.SweepSpace
	if *machineIn != "" {
		if setFlags["vms"] {
			fail(fmt.Errorf("-vms and -machine are mutually exclusive (the spec file names its machine)"))
		}
		spec, merr := mmusim.LoadMachineSpec(*machineIn)
		if merr != nil {
			fail(merr)
		}
		space = mmusim.SweepSpace{Base: mmusim.ConfigForMachine(spec), VMs: []string{spec.Name}}
	} else {
		vmList := strings.Split(*vms, ",")
		if *vms == "all" {
			vmList = mmusim.VMs()
		}
		space = mmusim.SweepSpace{Base: mmusim.DefaultConfig(vmList[0]), VMs: vmList}
	}
	space.Base.Seed = *seed
	if setFlags["tlb2assoc"] {
		space.Base.TLB2Assoc = *tlb2Ways
	}
	var err error
	if space.L1Sizes, err = parseInts(*l1s, paperL1); err != nil {
		fail(err)
	}
	if space.L2Sizes, err = parseInts(*l2s, paperL2); err != nil {
		fail(err)
	}
	if space.L1Lines, err = parseInts(*l1lines, paperLines); err != nil {
		fail(err)
	}
	if space.L2Lines, err = parseInts(*l2lines, paperLines); err != nil {
		fail(err)
	}
	if space.TLBEntries, err = parseInts(*tlbs, nil); err != nil {
		fail(err)
	}
	if space.TLB2Entries, err = parseInts(*tlb2s, nil); err != nil {
		fail(err)
	}
	if space.Cores, err = parseInts(*coresFl, nil); err != nil {
		fail(err)
	}
	if *osPols != "" {
		for _, p := range strings.Split(*osPols, ",") {
			space.OSPolicies = append(space.OSPolicies, strings.TrimSpace(p))
		}
	}
	if setFlags["memframes"] {
		space.Base.MemFrames = *frames
	}
	if setFlags["shootdown"] {
		space.Base.ShootdownCost = *shootFl
	}

	var tr *mmusim.Trace
	label := *bench
	switch {
	case *traceIn != "":
		// Format auto-detection: classic binary, .vmtrc (decoded through
		// the memory-mapped block reader), or Dinero text.
		if tr, err = mmusim.OpenTraceFile(*traceIn); err != nil {
			fail(err)
		}
		label = tr.Name
	case *dinIn != "":
		f, ferr := os.Open(*dinIn)
		if ferr != nil {
			fail(ferr)
		}
		if tr, err = mmusim.ReadDineroTrace(f, *dinIn); err != nil {
			fail(err)
		}
		f.Close()
		label = tr.Name
	default:
		if tr, err = mmusim.GenerateTrace(*bench, *seed, *n); err != nil {
			fail(err)
		}
	}
	cfgs := space.Configs()
	fmt.Fprintf(os.Stderr, "vmsweep: %d configurations × %d instructions (%s)\n",
		len(cfgs), tr.Len(), label)

	// Ctrl-C cancels the sweep cleanly: completed rows stay valid CSV.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *resumeFl && *jdir == "" {
		fail(fmt.Errorf("-resume requires -journal"))
	}
	remotes := strings.Fields(strings.ReplaceAll(*remote, ",", " "))

	// The progress tracker runs unconditionally (its per-point cost is
	// a few atomic adds); -progress decides whether it is printed, and
	// the expvar export makes it visible under -debug-addr regardless.
	prog := obs.NewProgress(len(cfgs))
	obs.Publish("vmsweep.progress", func() any { return prog.Snapshot() })
	var progressStop chan struct{}
	var progressWG sync.WaitGroup
	if *progress {
		fmt.Fprintf(os.Stderr, "vmsweep: progress %s\n", prog.Snapshot())
		progressStop = make(chan struct{})
		progressWG.Add(1)
		go func() {
			defer progressWG.Done()
			t := time.NewTicker(time.Second)
			defer t.Stop()
			for {
				select {
				case <-progressStop:
					return
				case <-t.C:
					fmt.Fprintf(os.Stderr, "vmsweep: progress %s\n", prog.Snapshot())
				}
			}
		}()
	}

	exitCode := 0
	var points []mmusim.SweepPoint
	pointDone := func(_ int, p mmusim.SweepPoint) {
		prog.Done(p.Attempts, p.Resumed, p.Err != nil && mmusim.ErrorCategory(p.Err) != "cancelled")
	}
	if len(remotes) > 0 {
		fmt.Fprintf(os.Stderr, "vmsweep: coordinating %d points across %d worker(s)\n", len(cfgs), len(remotes))
		points, err = coord.Run(ctx, tr, cfgs, coord.Options{
			Endpoints:    remotes,
			LeaseTimeout: *leaseTO,
			JournalDir:   *jdir,
			Resume:       *resumeFl,
			Seed:         *seed,
			PointDone:    pointDone,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "vmsweep: "+format+"\n", args...)
			},
		})
	} else {
		points, err = mmusim.SweepWithOptions(ctx, tr, cfgs, mmusim.SweepOptions{
			Workers:      *workers,
			JournalDir:   *jdir,
			Resume:       *resumeFl,
			PointTimeout: *timeout,
			Retries:      *retries,
			Backoff:      *backoff,
			PointDone:    pointDone,
		})
	}
	if *progress {
		close(progressStop)
		progressWG.Wait()
	}
	if err != nil {
		fail(err)
	}
	if *progress {
		fmt.Fprintf(os.Stderr, "vmsweep: progress %s (done in %s)\n",
			prog.Snapshot(), time.Since(start).Round(time.Millisecond))
	}

	// The canonical CSV writer emits rows in point order regardless of
	// which worker finished when — this is the function the determinism
	// suites pin byte-identical across -workers 1/N, -remote, and
	// -resume.
	if _, err := mmusim.WriteSweepCSV(os.Stdout, label, points); err != nil {
		fail(err)
	}
	byCategory := map[string]int{}
	// A resumed point came from the journal (no attempt ran in this
	// process) or, on -remote, from a worker's result cache.
	resumed, journaled, failed := 0, 0, 0
	for _, p := range points {
		if p.Err != nil {
			cat := mmusim.ErrorCategory(p.Err)
			byCategory[cat]++
			if cat != "cancelled" {
				failed++
				fmt.Fprintf(os.Stderr, "vmsweep: point %s failed (%s): %v\n", p.Config.Label(), cat, p.Err)
			}
			continue
		}
		if p.Resumed {
			resumed++
			if p.Attempts == 0 {
				journaled++
			}
		}
	}
	if journaled > 0 {
		fmt.Fprintf(os.Stderr, "vmsweep: %d of %d points replayed from journal %s\n", journaled, len(cfgs), *jdir)
	}
	if cached := resumed - journaled; cached > 0 {
		fmt.Fprintf(os.Stderr, "vmsweep: %d of %d points replayed from vmserved cache\n", cached, len(cfgs))
	}
	if cancelled := byCategory["cancelled"]; cancelled > 0 {
		fmt.Fprintf(os.Stderr, "vmsweep: interrupted — %d of %d points not run\n", cancelled, len(cfgs))
	}
	if failed > 0 {
		// Per-category failure summary, categories in taxonomy order.
		var parts []string
		for _, cat := range mmusim.ErrorCategories() {
			if cat == "cancelled" {
				continue
			}
			if n := byCategory[cat]; n > 0 {
				parts = append(parts, fmt.Sprintf("%s=%d", cat, n))
			}
		}
		fmt.Fprintf(os.Stderr, "vmsweep: %d of %d points failed (%s); completed rows above are valid\n",
			failed, len(cfgs), strings.Join(parts, " "))
		exitCode = 3
	}
	if *manifest != "" {
		completed, retriedN := 0, 0
		var simTime time.Duration
		for _, p := range points {
			if p.Err == nil {
				completed++
			}
			if p.Attempts > 1 {
				retriedN++
			}
			simTime += p.Duration
		}
		var errCounts map[string]int
		for cat, count := range byCategory {
			if cat == "cancelled" {
				continue
			}
			if errCounts == nil {
				errCounts = map[string]int{}
			}
			errCounts[cat] = count
		}
		effWorkers := *workers
		if effWorkers <= 0 {
			effWorkers = runtime.GOMAXPROCS(0)
		}
		m := campaignManifest{
			Schema:      1,
			Benchmark:   label,
			TraceSHA256: mmusim.TraceSHA256(tr),
			TraceRefs:   tr.Len(),
			Configs:     len(cfgs),
			Workers:     effWorkers,
			WallSeconds: time.Since(start).Seconds(),
			SimSeconds:  simTime.Seconds(),
			Completed:   completed,
			Resumed:     resumed,
			Retried:     retriedN,
			Failed:      failed,
			Cancelled:   byCategory["cancelled"],
			Errors:      errCounts,
			ExitStatus:  exitCode,
		}
		data, merr := json.MarshalIndent(m, "", "  ")
		if merr != nil {
			fail(merr)
		}
		if werr := atomicio.WriteFile(*manifest, append(data, '\n'), 0o644); werr != nil {
			fail(werr)
		}
	}
	if *memProf != "" {
		f, ferr := atomicio.Create(*memProf)
		if ferr != nil {
			fail(ferr)
		}
		cleanups = append(cleanups, func() { f.Close() })
		runtime.GC()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fail(err)
		}
		if err := f.Commit(); err != nil {
			fail(err)
		}
	}
	if exitCode != 0 {
		// Flush the CPU profile and run the cleanups (debug-server
		// shutdown included) before the deliberate non-zero exit:
		// os.Exit skips every defer.
		stopCPUProfile()
		for i := len(cleanups) - 1; i >= 0; i-- {
			cleanups[i]()
		}
		os.Exit(exitCode)
	}
}
