package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/sim"
	"repro/internal/trace"
)

// streamBody assembles a POST /v1/stream request body: the JSON
// preamble immediately followed by the serialized .vmtrc trace.
func streamBody(t *testing.T, cfg sim.Config, tr *trace.Trace) []byte {
	t.Helper()
	head, err := json.Marshal(api.StreamRequest{APIVersion: api.Version, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.Write(head)
	if _, err := tr.WriteVMTRC(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readEvents drains an NDJSON stream response into its event list.
func readEvents(t *testing.T, r io.Reader) []api.StreamEvent {
	t.Helper()
	var evs []api.StreamEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	for sc.Scan() {
		var ev api.StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return evs
}

// checkNoGoroutineLeak snapshots the goroutine count and fails the test
// if it has not settled back at cleanup time (hand-rolled; the module
// deliberately carries no leak-check dependency).
func checkNoGoroutineLeak(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			if n := runtime.NumGoroutine(); n <= before {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Fatalf("goroutines leaked: %d before, %d after\n%s",
					before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

func TestStreamMatchesBatchOverTheWire(t *testing.T) {
	checkNoGoroutineLeak(t)
	tr := testTrace(t, 20_000)
	cfg := sim.Default(sim.VMUltrix)
	cfg.WarmupInstrs = 4_000
	cfg.SampleEvery = 3_000

	batch, err := sim.Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}

	_, ts := startServer(t, Config{Workers: 2})
	resp, err := http.Post(ts.URL+"/v1/stream", "application/octet-stream",
		bytes.NewReader(streamBody(t, cfg, tr)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q", ct)
	}
	evs := readEvents(t, resp.Body)
	if len(evs) < 2 {
		t.Fatalf("got %d events, want ready + samples + result", len(evs))
	}
	if evs[0].Type != api.StreamReady || evs[0].Trace != tr.Name || evs[0].TotalRefs != tr.Len() {
		t.Fatalf("first event %+v, want ready for %q/%d", evs[0], tr.Name, tr.Len())
	}
	last := evs[len(evs)-1]
	if last.Type != api.StreamResult {
		t.Fatalf("terminal event %+v, want result", last)
	}
	if *last.Result.Counters != batch.Counters {
		t.Fatalf("streamed counters diverge from batch:\n got  %+v\n want %+v",
			*last.Result.Counters, batch.Counters)
	}
	if last.Refs != tr.Len() {
		t.Fatalf("result reports %d refs, want %d", last.Refs, tr.Len())
	}
	samples := evs[1 : len(evs)-1]
	if len(samples) != len(batch.Timeline) {
		t.Fatalf("got %d sample events, batch recorded %d", len(samples), len(batch.Timeline))
	}
	for i, ev := range samples {
		if ev.Type != api.StreamSample {
			t.Fatalf("event %d is %q, want sample", i+1, ev.Type)
		}
		if *ev.Sample != batch.Timeline[i] {
			t.Fatalf("sample %d diverges:\n got  %+v\n want %+v", i, *ev.Sample, batch.Timeline[i])
		}
	}
}

func TestStreamRejectsBadRequests(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1})
	tr := testTrace(t, 100)
	cfg := sim.Default(sim.VMUltrix)

	post := func(body []byte) int {
		resp, err := http.Post(ts.URL+"/v1/stream", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// Wrong api version.
	head, _ := json.Marshal(api.StreamRequest{APIVersion: 99, Config: cfg})
	if got := post(head); got != http.StatusBadRequest {
		t.Fatalf("wrong version: status %d, want 400", got)
	}
	// Invalid config.
	bad := cfg
	bad.VM = "no-such-machine"
	head, _ = json.Marshal(api.StreamRequest{APIVersion: api.Version, Config: bad})
	if got := post(head); got != http.StatusBadRequest {
		t.Fatalf("bad config: status %d, want 400", got)
	}
	// Not a .vmtrc body (classic binary magic is not accepted here).
	head, _ = json.Marshal(api.StreamRequest{APIVersion: api.Version, Config: cfg})
	var classic bytes.Buffer
	classic.Write(head)
	if _, err := tr.WriteTo(&classic); err != nil {
		t.Fatal(err)
	}
	if got := post(classic.Bytes()); got != http.StatusBadRequest {
		t.Fatalf("classic-format body: status %d, want 400", got)
	}
}

func TestStreamCorruptBodyReportsErrorEvent(t *testing.T) {
	checkNoGoroutineLeak(t)
	_, ts := startServer(t, Config{Workers: 1})
	tr := testTrace(t, 10_000)
	cfg := sim.Default(sim.VMUltrix)
	body := streamBody(t, cfg, tr)
	body[len(body)/2] ^= 0x40 // damage a block body

	resp, err := http.Post(ts.URL+"/v1/stream", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (corruption is mid-stream, after commit)", resp.StatusCode)
	}
	evs := readEvents(t, resp.Body)
	last := evs[len(evs)-1]
	if last.Type != api.StreamError || last.Category != "trace" {
		t.Fatalf("terminal event %+v, want error/trace", last)
	}
}

func TestStreamTruncatedUploadReportsErrorEvent(t *testing.T) {
	checkNoGoroutineLeak(t)
	_, ts := startServer(t, Config{Workers: 1})
	tr := testTrace(t, 10_000)
	cfg := sim.Default(sim.VMUltrix)
	body := streamBody(t, cfg, tr)

	resp, err := http.Post(ts.URL+"/v1/stream", "application/octet-stream",
		bytes.NewReader(body[:len(body)*2/3]))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	evs := readEvents(t, resp.Body)
	last := evs[len(evs)-1]
	if last.Type != api.StreamError || last.Category != "trace" {
		t.Fatalf("terminal event %+v, want error/trace", last)
	}
}

// TestStreamLeavesConnectionClean runs completed and corrupt-body
// streams over keep-alive connections and asserts net/http
// logged no "panic serving": a handler that returns with the upload
// unread makes the connection's finishing read collide with its next
// request read.
func TestStreamLeavesConnectionClean(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewUnstartedServer(s.Handler())
	// log.Logger serializes the connections' writes; Close orders them
	// before the read below.
	var errLog bytes.Buffer
	ts.Config.ErrorLog = log.New(&errLog, "", 0)
	ts.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	}()

	tr := testTrace(t, 10_000)
	cfg := sim.Default(sim.VMUltrix)
	good := streamBody(t, cfg, tr)
	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)/2] ^= 0x40
	// The collision is a race, so the pair runs a few times.
	for range 8 {
		for _, c := range []struct {
			name string
			body []byte
			want string
		}{{"complete", good, api.StreamResult}, {"corrupt", corrupt, api.StreamError}} {
			resp, err := ts.Client().Post(ts.URL+"/v1/stream", "application/octet-stream", bytes.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			evs := readEvents(t, resp.Body)
			resp.Body.Close()
			if last := evs[len(evs)-1]; last.Type != c.want {
				t.Fatalf("%s stream ended with %+v, want %s", c.name, last, c.want)
			}
		}
	}
	// Close waits for every connection to finish, so a panic in any of
	// them has been logged by the time it returns.
	ts.Close()
	if logged := errLog.String(); strings.Contains(logged, "panic serving") {
		t.Fatalf("server logged a panic:\n%s", logged)
	}
}

func TestStreamAdmissionBound429(t *testing.T) {
	checkNoGoroutineLeak(t)
	s, ts := startServer(t, Config{Workers: 1, MaxStreams: 1})
	tr := testTrace(t, 5_000)
	cfg := sim.Default(sim.VMUltrix)

	// Hold the single slot open: send the preamble and the trace header,
	// then stall before the first full block.
	body := streamBody(t, cfg, tr)
	pr, pw := io.Pipe()
	errc := make(chan error, 1)
	go func() {
		req, _ := http.NewRequest("POST", ts.URL+"/v1/stream", pr)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
		}
		errc <- err
	}()
	if _, err := pw.Write(body[:200]); err != nil {
		t.Fatal(err)
	}
	// Wait until the slot registers.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		n := s.streams
		s.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stream never occupied its slot")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// readyz goes unready while the slots are saturated.
	rresp, err := http.Get(ts.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rd api.Ready
	if err := json.NewDecoder(rresp.Body).Decode(&rd); err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusServiceUnavailable || rd.ActiveStreams != 1 || rd.StreamBound != 1 {
		t.Fatalf("readyz = %d %+v, want 503 with 1/1 streams", rresp.StatusCode, rd)
	}

	// The second stream is refused with 429 + Retry-After.
	resp, err := http.Post(ts.URL+"/v1/stream", "application/octet-stream",
		bytes.NewReader(streamBody(t, cfg, tr)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second stream: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After hint")
	}

	// Release the held stream and let it finish cleanly.
	if _, err := pw.Write(body[200:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

func TestStreamClientDisconnectReleasesSlot(t *testing.T) {
	checkNoGoroutineLeak(t)
	s, ts := startServer(t, Config{Workers: 1, MaxStreams: 1})
	tr := testTrace(t, 5_000)
	cfg := sim.Default(sim.VMUltrix)
	body := streamBody(t, cfg, tr)

	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/stream", pr)
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
		}
		errc <- err
	}()
	if _, err := pw.Write(body[:200]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		n := s.streams
		s.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stream never occupied its slot")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Hang up mid-stream; the server must notice and free the slot.
	cancel()
	pw.CloseWithError(context.Canceled) //nolint:errcheck
	<-errc
	deadline = time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		n := s.streams
		s.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("disconnected stream never released its slot")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestStreamDrainFinalizesInflightAndRefusesNew(t *testing.T) {
	checkNoGoroutineLeak(t)
	s := New(Config{Workers: 1, MaxStreams: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	tr := testTrace(t, 8_000)
	cfg := sim.Default(sim.VMUltrix)
	cfg.SampleEvery = 2_000
	body := streamBody(t, cfg, tr)

	batch, err := sim.Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}

	// Open a stream and park it mid-upload.
	pr, pw := io.Pipe()
	type outcome struct {
		evs []api.StreamEvent
		err error
	}
	outc := make(chan outcome, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/stream", "application/octet-stream", pr)
		if err != nil {
			outc <- outcome{nil, err}
			return
		}
		defer resp.Body.Close()
		outc <- outcome{readEvents(t, resp.Body), nil}
	}()
	if _, err := pw.Write(body[:len(body)/2]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		n := s.streams
		s.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stream never occupied its slot")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Begin the drain while the stream is in flight.
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	// New streams are refused while the old one drains.
	for {
		resp, err := http.Post(ts.URL+"/v1/stream", "application/octet-stream",
			bytes.NewReader(streamBody(t, cfg, tr)))
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("draining server still admits streams (last status %d)", code)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Finish the upload: the drained server must still complete it.
	if _, err := pw.Write(body[len(body)/2:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	out := <-outc
	if out.err != nil {
		t.Fatal(out.err)
	}
	last := out.evs[len(out.evs)-1]
	if last.Type != api.StreamResult {
		t.Fatalf("terminal event %+v, want result (drain must finalize in-flight streams)", last)
	}
	if *last.Result.Counters != batch.Counters {
		t.Fatal("drained stream's result diverges from batch")
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestRetryAfterSeconds pins the hint's edges: an empty queue still
// advises at least one second, a queue exactly at its bound stays
// within the cap, and an overflow-sized depth cannot push the hint
// past it.
func TestRetryAfterSeconds(t *testing.T) {
	s := New(Config{Workers: 4, QueueBound: 1024})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	})
	cases := []struct {
		queued int64
		want   int
	}{
		{0, 1},               // empty queue: floor of one second
		{1, 1},               // sub-second estimate rounds up to the floor
		{16, 1},              // exactly workers*4: integer division hits 1
		{1024, 30},           // queue at bound: 1024/16 = 64, capped at 30
		{480, 30},            // first depth at the cap
		{479, 29},            // one below: still under the cap
		{1 << 40, 30},        // overflow-sized hint stays capped
		{int64(1) << 62, 30}, // and at the extreme
	}
	for _, c := range cases {
		if got := s.retryAfterSeconds(c.queued); got != c.want {
			t.Errorf("retryAfterSeconds(%d) = %d, want %d", c.queued, got, c.want)
		}
	}
}
