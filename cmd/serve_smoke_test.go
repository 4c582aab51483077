// End-to-end tests of the simulation service: a real vmserved process
// on a random port, driven by `vmsweep -remote`, asserting the remote
// CSV is byte-identical to a local run — cold, warm (all cache hits),
// and after the client is killed and restarted mid-campaign.
package cmd_test

import (
	"bufio"
	"bytes"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// vmserved wraps one daemon process started on a random port.
type vmserved struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:PORT
}

// startVMServed launches the daemon with the given extra flags, waits
// for its parseable "listening on" line, and registers teardown
// (SIGTERM, then wait) with the test.
func startVMServed(t *testing.T, extra ...string) *vmserved {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(filepath.Join(binDir, "vmserved"), args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The daemon prints "vmserved: listening on ADDR (engine ...)" once
	// the socket is bound.
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				addrCh <- strings.Fields(rest)[0]
			}
		}
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case <-time.After(30 * time.Second):
		cmd.Process.Kill() //nolint:errcheck
		t.Fatal("vmserved never reported its listen address")
	}
	s := &vmserved{cmd: cmd, base: base}
	t.Cleanup(func() {
		s.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck
		s.cmd.Wait()                          //nolint:errcheck
	})
	// Wait until the health endpoint answers.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("vmserved at %s never became healthy: %v", base, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// sweepArgs is the campaign used by every remote test: small enough to
// finish quickly, big enough to cross several points.
var sweepArgs = []string{"-bench", "gcc", "-n", "8000", "-vms", "ultrix,intel", "-l1", "1024,4096"}

func TestVMSweepRemoteByteIdenticalAndWarmCache(t *testing.T) {
	srv := startVMServed(t, "-cache-dir", t.TempDir())

	local, errLocal, code := run(t, "vmsweep", sweepArgs...)
	if code != 0 {
		t.Fatalf("local sweep exit %d, stderr: %s", code, errLocal)
	}
	remoteArgs := append([]string{"-remote", srv.base}, sweepArgs...)
	cold, errCold, code := run(t, "vmsweep", remoteArgs...)
	if code != 0 {
		t.Fatalf("remote sweep exit %d, stderr: %s", code, errCold)
	}
	if cold != local {
		t.Fatalf("remote CSV differs from local CSV:\n--- local ---\n%s--- remote ---\n%s", local, cold)
	}
	// Second run against the warm daemon: byte-identical again, every
	// point replayed from the cache, no simulation.
	warm, errWarm, code := run(t, "vmsweep", remoteArgs...)
	if code != 0 {
		t.Fatalf("warm remote sweep exit %d, stderr: %s", code, errWarm)
	}
	if warm != local {
		t.Fatalf("warm remote CSV differs from local:\n%s", warm)
	}
	if !strings.Contains(errWarm, "replayed from vmserved cache") {
		t.Fatalf("warm run did not report cache replay, stderr: %s", errWarm)
	}
}

func TestVMSweepRemoteKilledAndRestartedIsByteIdentical(t *testing.T) {
	srv := startVMServed(t, "-cache-dir", t.TempDir())
	local, errLocal, code := run(t, "vmsweep", sweepArgs...)
	if code != 0 {
		t.Fatalf("local sweep exit %d, stderr: %s", code, errLocal)
	}

	// Start a remote campaign and kill the client mid-flight. The
	// server keeps simulating the submitted job; whatever finished is
	// in the cache.
	remoteArgs := append([]string{"-remote", srv.base}, sweepArgs...)
	victim := exec.Command(filepath.Join(binDir, "vmsweep"), remoteArgs...)
	victim.Stdout, victim.Stderr = &bytes.Buffer{}, &bytes.Buffer{}
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond) // let it upload and submit
	victim.Process.Kill()              //nolint:errcheck
	victim.Wait()                      //nolint:errcheck

	// The re-run campaign completes and is byte-identical to the local
	// run — finished points replay from the cache, the rest simulate.
	out, errOut, code := run(t, "vmsweep", remoteArgs...)
	if code != 0 {
		t.Fatalf("restarted remote sweep exit %d, stderr: %s", code, errOut)
	}
	if out != local {
		t.Fatalf("restarted remote CSV differs from local:\n--- local ---\n%s--- remote ---\n%s", local, out)
	}
}

// TestVMSweepRemoteJournalKilledAndResumed kills a single-endpoint
// -remote -journal campaign once its journal holds a committed point,
// then re-runs it with -resume: the journal replays its points, the
// coordinator leases out the rest, and the CSV is byte-identical to a
// local run.
func TestVMSweepRemoteJournalKilledAndResumed(t *testing.T) {
	args := []string{"-bench", "gcc", "-n", "20000", "-vms", "ultrix,intel",
		"-l1", "1024,2048,4096,8192", "-tlb", "16,32,64,128,256"}
	local := serialGolden(t, args)
	srv := startVMServed(t, "-cache-dir", t.TempDir())
	jdir := t.TempDir()
	remoteArgs := append([]string{"-remote", srv.base, "-journal", jdir}, args...)

	victim := exec.Command(filepath.Join(binDir, "vmsweep"), remoteArgs...)
	victim.Stdout, victim.Stderr = &bytes.Buffer{}, &bytes.Buffer{}
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for journalRecords(jdir) == 0 {
		if time.Now().After(deadline) {
			victim.Process.Kill() //nolint:errcheck
			t.Fatal("journal never gained a committed point")
		}
		time.Sleep(time.Millisecond)
	}
	victim.Process.Kill() //nolint:errcheck
	victim.Wait()         //nolint:errcheck

	out, errOut, code := run(t, "vmsweep", append([]string{"-resume"}, remoteArgs...)...)
	if code != 0 {
		t.Fatalf("resumed remote sweep exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(errOut, "replayed from journal") {
		t.Fatalf("resumed run replayed nothing from the journal, stderr: %s", errOut)
	}
	if out != local {
		t.Fatalf("resumed remote CSV differs from local:\n--- local ---\n%s--- resumed ---\n%s", local, out)
	}
}

func TestVersionFlagOnEveryTool(t *testing.T) {
	for _, tool := range []string{"vmsim", "vmtrace", "vmsweep", "vmexperiment", "vmserved"} {
		out, errOut, code := run(t, tool, "-version")
		if code != 0 {
			t.Fatalf("%s -version exit %d, stderr: %s", tool, code, errOut)
		}
		if !strings.Contains(out, "engine/") {
			t.Errorf("%s -version output %q lacks the engine identity", tool, out)
		}
	}
}

func TestVMServedDrainsOnSIGTERM(t *testing.T) {
	srv := startVMServed(t)
	if err := srv.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("vmserved exited non-zero on SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		srv.cmd.Process.Kill() //nolint:errcheck
		t.Fatal("vmserved did not drain within 30s of SIGTERM")
	}
	// The port is released.
	if resp, err := http.Get(srv.base + "/v1/healthz"); err == nil {
		resp.Body.Close()
		t.Fatal("drained daemon still answering")
	}
}

// TestVMSweepRemoteMultiWorkerDaemonByteIdentical pins the remote half
// of the parallel determinism oracle: a campaign served by a 4-worker
// daemon must be byte-identical to a strictly serial local run, with
// points reassembled by index no matter which daemon worker finished
// first.
func TestVMSweepRemoteMultiWorkerDaemonByteIdentical(t *testing.T) {
	srv := startVMServed(t, "-workers", "4")

	local, errLocal, code := run(t, "vmsweep", append([]string{"-workers", "1"}, sweepArgs...)...)
	if code != 0 {
		t.Fatalf("local serial sweep exit %d, stderr: %s", code, errLocal)
	}
	remote, errRemote, code := run(t, "vmsweep", append([]string{"-remote", srv.base}, sweepArgs...)...)
	if code != 0 {
		t.Fatalf("remote sweep exit %d, stderr: %s", code, errRemote)
	}
	if remote != local {
		t.Fatalf("multi-worker daemon CSV differs from serial local run:\n--- local ---\n%s--- remote ---\n%s",
			local, remote)
	}
}
