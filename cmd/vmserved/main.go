// Command vmserved serves the MMU simulator over HTTP: clients upload a
// trace once (content-addressed by sha256), submit point or sweep jobs
// against it, and poll for results. Identical submissions are
// deduplicated in flight and memoized in a content-addressed result
// cache, so a sweep re-run against a warm daemon costs no simulation at
// all — and `vmsweep -remote` emits CSV byte-identical to a local run.
//
// Usage:
//
//	vmserved -addr localhost:8080
//	vmserved -addr localhost:8080 -cache-dir /var/cache/vmserved -workers 8 -queue 4096
//	vmsweep -remote http://localhost:8080 -bench gcc -vms all -l1 paper > gcc.csv
//
// Protocol: POST /v1/traces (binary trace body), POST /v1/jobs
// ({api_version, trace_sha256, configs[]}), GET /v1/jobs/{id}[?wait=D]
// (D holds the answer until the job is done or D passes), GET
// /v1/healthz. A full queue answers 429 with Retry-After; a draining
// daemon answers 503. /debug/vars exposes queue depth, in-flight
// points, and cache hit rates; /debug/pprof/ serves live profiles.
//
// Streaming: POST /v1/stream accepts a JSON preamble followed by raw
// .vmtrc bytes on one long-lived connection, simulates block by block
// as the upload arrives, and pushes live MCPI/VMCPI timeline rows back
// as NDJSON (`vmsim -stream`). At most -max-streams run concurrently;
// beyond that, 429 with Retry-After. A SIGTERM drain finalizes
// in-flight streams before exiting.
//
// Lifecycle: SIGINT/SIGTERM starts a graceful drain — the listener
// stops accepting work, held ?wait= requests are answered at once,
// queued and in-flight points run to completion
// (bounded by -drain-timeout, then cancelled cooperatively), and the
// daemon exits 0.
//
// Health: GET /healthz answers liveness (the process is up); GET
// /readyz answers readiness (503 while draining or while the point
// queue is saturated), which is what fleet clients and the distributed
// coordinator fail over on.
//
// Coordinator mode: -coord URL1,URL2,... turns the daemon into a
// front-door — jobs it accepts are not simulated locally but fanned out
// across the listed vmserved workers through the fault-tolerant
// coordinator (internal/coord: leases, consistent-hash failover, work
// stealing), with this daemon's result cache and wire protocol
// unchanged from a client's point of view.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/coord"
	"repro/internal/obs"
	"repro/internal/rescache"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/version"
)

func main() {
	var (
		addr         = flag.String("addr", "localhost:8080", "HTTP listen address")
		workers      = flag.Int("workers", 0, "simulation workers (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 1024, "queued-point bound; beyond it submissions get 429 + Retry-After")
		maxStreams   = flag.Int("max-streams", 0, "concurrent /v1/stream bound; beyond it streams get 429 (0 = worker count)")
		cacheDir     = flag.String("cache-dir", "", "persist results content-addressed under this directory ('' = memory only)")
		cacheEntries = flag.Int("cache-entries", rescache.DefaultMaxEntries, "in-memory result cache bound")
		timeout      = flag.Duration("timeout", 0, "per-point deadline (0 = none)")
		retries      = flag.Int("retries", 0, "extra attempts for transiently-failing points")
		backoff      = flag.Duration("backoff", 100*time.Millisecond, "first retry delay; doubles per attempt")
		drain        = flag.Duration("drain-timeout", time.Minute, "on SIGTERM, bound the graceful drain; then in-flight points are cancelled")
		coordFleet   = flag.String("coord", "", "coordinator front-door: fan jobs out across these comma-separated vmserved worker endpoints instead of simulating locally")
		leaseTO      = flag.Duration("lease-timeout", coord.DefaultLeaseTimeout, "with -coord: no-progress deadline before a worker's lease is reclaimed")
		showVersion  = flag.Bool("version", false, "print the engine version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String())
		return
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "vmserved:", err)
		os.Exit(1)
	}

	cache, err := rescache.New(*cacheDir, *cacheEntries)
	if err != nil {
		fail(err)
	}
	scfg := server.Config{
		Workers:      *workers,
		QueueBound:   *queue,
		MaxStreams:   *maxStreams,
		Cache:        cache,
		PointTimeout: *timeout,
		Retries:      *retries,
		Backoff:      *backoff,
	}
	if *coordFleet != "" {
		endpoints := strings.Fields(strings.ReplaceAll(*coordFleet, ",", " "))
		if len(endpoints) == 0 {
			fail(fmt.Errorf("-coord needs at least one worker endpoint"))
		}
		scfg.Campaign = func(ctx context.Context, tr *trace.Trace, cfgs []sim.Config, done func(int, sweep.Point)) error {
			_, err := coord.Run(ctx, tr, cfgs, coord.Options{
				Endpoints:    endpoints,
				LeaseTimeout: *leaseTO,
				PointDone:    done,
				Logf: func(format string, args ...any) {
					fmt.Fprintf(os.Stderr, "vmserved: "+format+"\n", args...)
				},
			})
			return err
		}
		fmt.Fprintf(os.Stderr, "vmserved: coordinator mode, %d worker(s)\n", len(endpoints))
	}
	srv := server.New(scfg)
	// Install the signal handler before the socket binds: once the
	// "listening on" line is out, a supervisor may SIGTERM at any time
	// and must get a drain, never the default kill disposition.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	hs, err := obs.StartHTTP(*addr, srv.Handler())
	if err != nil {
		fail(err)
	}
	// The parseable "listening on" line goes out after the socket is
	// bound, so supervisors (and the smoke tests) can wait for it.
	fmt.Fprintf(os.Stderr, "vmserved: listening on %s (engine %s)\n", hs.Addr, version.Engine())

	<-ctx.Done()
	fmt.Fprintf(os.Stderr, "vmserved: draining (up to %s)\n", *drain)

	// The server's drain and the HTTP shutdown share one budget and run
	// together: the drain answers every held ?wait= request at once, so
	// hs.Shutdown waits only for real work. A live /v1/stream is such
	// work, and both wait for it: a short fixed timeout would sever
	// streams mid-upload instead of finalizing them.
	dctx, dcancel := context.WithTimeout(context.Background(), *drain)
	defer dcancel()
	drained := make(chan error, 1)
	go func() { drained <- srv.Shutdown(dctx) }()
	if err := hs.Shutdown(dctx); err != nil {
		hs.Close() //nolint:errcheck
	}
	if err := <-drained; err != nil {
		fmt.Fprintln(os.Stderr, "vmserved: drain deadline hit; in-flight points cancelled")
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "vmserved: drained cleanly")
}
