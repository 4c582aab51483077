package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procResult is one finished tool process, as a user would see it.
type procResult struct {
	wall   time.Duration
	rssMB  float64
	stdout []byte
	stderr []byte
}

// rusageMB converts a wait4 resource usage to peak resident megabytes;
// Linux reports ru_maxrss in KiB.
func rusageMB(st *os.ProcessState) float64 {
	if st == nil {
		return 0
	}
	ru, ok := st.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return maxRSSMB(ru.Maxrss)
}

func maxRSSMB(maxrssKiB int64) float64 { return float64(maxrssKiB) / 1024 }

// toolTimeout bounds any single tool process, so a hung tool fails the
// run instead of outliving the benchmark's exit deadline.
const toolTimeout = 90 * time.Second

// runTool runs a tool to completion and times it from start to exit.
func runTool(ctx context.Context, bin string, args ...string) (procResult, error) {
	ctx, cancel := context.WithTimeout(ctx, toolTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	err := cmd.Run()
	res := procResult{wall: time.Since(start), rssMB: rusageMB(cmd.ProcessState), stdout: out.Bytes(), stderr: errb.Bytes()}
	if err != nil {
		return res, fmt.Errorf("%s %s: %w: %s", filepath.Base(bin), strings.Join(args, " "), err, lastLine(errb.String()))
	}
	return res, nil
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// daemon is a running vmserved.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	startup time.Duration // process start until its "listening on" line
	done    chan struct{} // closed once stderr reaches EOF
	mu      sync.Mutex
	log     bytes.Buffer
}

// startDaemon launches vmserved on a loopback port and returns once it
// has printed its "listening on" line.
func startDaemon(bin string, workers int, cacheDir string) (*daemon, error) {
	d := &daemon{done: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", fmt.Sprint(workers), "-cache-dir", cacheDir)
	pipe, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	addr := make(chan string, 1) // one send at most; never blocks the reader
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.log.WriteString(line + "\n")
			d.mu.Unlock()
			if a, ok := listeningAddr(line); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
		io.Copy(io.Discard, pipe) //nolint:errcheck // drain after a scanner error so the daemon never blocks on stderr
	}()
	select {
	case a := <-addr:
		d.startup = time.Since(start)
		d.url = "http://" + a
		return d, nil
	case <-d.done:
	case <-time.After(30 * time.Second):
	}
	d.cmd.Process.Kill() //nolint:errcheck // already failing; Wait below reaps it
	<-d.done
	d.cmd.Wait() //nolint:errcheck
	return nil, fmt.Errorf("vmserved did not report its address: %s", lastLine(d.logText()))
}

// listeningAddr parses vmserved's "listening on ADDR (...)" line.
func listeningAddr(line string) (string, bool) {
	const marker = "listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		return "", false
	}
	f := strings.Fields(line[i+len(marker):])
	if len(f) == 0 {
		return "", false
	}
	return f[0], true
}

func (d *daemon) logText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.String()
}

// stop drains the daemon with SIGTERM, killing it if the drain overruns,
// and returns its peak resident memory.
func (d *daemon) stop() (float64, error) {
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // an exited daemon is reaped below
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck
		<-d.done
	}
	err := d.cmd.Wait()
	rss := rusageMB(d.cmd.ProcessState)
	if err != nil {
		return rss, fmt.Errorf("vmserved: %w: %s", err, lastLine(d.logText()))
	}
	if !strings.Contains(d.logText(), "drained cleanly") {
		return rss, fmt.Errorf("vmserved exited without a clean drain: %s", lastLine(d.logText()))
	}
	return rss, nil
}

// manifest is the part of vmsweep's -manifest record the benchmark
// reads: how many points ran and how many failed.
type manifest struct {
	Configs   int `json:"configs"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
	TraceRefs int `json:"trace_refs"`
}

// parseManifest decodes a vmsweep manifest and checks it is internally
// consistent: every configuration either completed or failed.
func parseManifest(data []byte) (manifest, error) {
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("manifest: %w", err)
	}
	if m.Configs <= 0 {
		return m, fmt.Errorf("manifest: %d configurations", m.Configs)
	}
	if m.Completed+m.Failed+m.Cancelled != m.Configs {
		return m, fmt.Errorf("manifest: %d completed + %d failed + %d cancelled != %d configurations",
			m.Completed, m.Failed, m.Cancelled, m.Configs)
	}
	return m, nil
}
