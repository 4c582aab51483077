// Command perfbench is the repository's benchmark. It builds inputs from
// a seed, drives the shipped tools (vmtrace, vmsweep, vmserved, vmsim)
// as subprocesses exactly as users invoke them, checks every output
// against recorded canaries, and prints one JSON result line.
//
// With -trace 1 it instead makes a traced run: it calls each layer's
// public functions in-process, in the order the tools use them, and
// reports per-layer host time and counts. The traced run never feeds the
// end-to-end numbers.
//
// Run it through run.sh, which builds the tools and this program first:
//
//	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --record   # re-record canaries.json for every input seed
//	cd perfbench && go run . -tables paper-sweep=ps.jsonl service=svc.jsonl   # markdown tables
//
// See README.md for the workloads, metrics and measured state.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: paper-sweep, multicore-paging or service")
		seedArg = flag.Int64("seed", 1, "workload seed; the inputs are a function of it")
		seconds = flag.Int("seconds", 20, "how long to measure")
		traceFl = flag.Int("trace", 0, "1 makes the traced per-layer run instead of the end-to-end run")
		bin     = flag.String("bin", filepath.Join(".bench_build", "perfbench", "bin"), "directory holding the built tools")
		work    = flag.String("work", filepath.Join(".bench_build", "perfbench"), "directory for run scratch space and span files")
		record  = flag.Bool("record", false, "re-record canaries.json for every input seed and exit")
		tables  = flag.Bool("tables", false, "render result files, given as workload=file[,file...] arguments, as markdown tables and exit")
	)
	flag.Parse()
	if *tables {
		if err := runTables(flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *name, *seedArg, *seconds, *traceFl, *bin, *work, *record); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, name string, seedArg int64, seconds, traceFl int, bin, work string, record bool) error {
	if _, err := os.Stat(filepath.Join(bin, "vmsweep")); err != nil {
		return fmt.Errorf("tools not built (run through run.sh): %w", err)
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{ctx: ctx, bin: bin, dir: dir, seconds: time.Duration(seconds) * time.Second, workers: runtime.NumCPU()}
	if record {
		return recordCanaries(e)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	e.seed = inputSeed(seedArg)
	if e.can, err = loadCanaries(e.seed); err != nil {
		return err
	}
	o := newOutcome()
	switch {
	case traceFl == 1:
		err = runTraced(e, w, o, filepath.Join(work, fmt.Sprintf("spans-%s-%d.json", w.name, seedArg)))
	case traceFl != 0:
		err = fmt.Errorf("--trace must be 0 or 1")
	case w.remote:
		err = runService(e, w, o)
	default:
		err = runLocal(e, w, o)
	}
	if err != nil {
		return err
	}
	if o.mismatch {
		o.failed = o.attempted
	}
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	data, err := json.Marshal(result{Correct: !o.mismatch && o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: o.metrics})
	if err != nil {
		return err // a NaN or Inf metric: nothing was measured
	}
	fmt.Println(string(data))
	return nil
}
