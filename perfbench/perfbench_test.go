package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the functions must sort
	}
	return xs
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		ok      bool
		pct, at float64
	}{
		{n: 9},
		{n: 19},
		{n: 20, ok: true, pct: 50, at: 10},
		{n: 39, ok: true, pct: 50, at: 20},
		{n: 40, ok: true, pct: 75, at: 30},
		{n: 100, ok: true, pct: 90, at: 90},
		{n: 320, ok: true, pct: 95, at: 304},
		{n: 1000, ok: true, pct: 99, at: 990},
		{n: 10000, ok: true, pct: 99.9, at: 9990},
	} {
		pct, v, ok := tailPercentile(seq(tc.n))
		if ok != tc.ok || pct != tc.pct || v != tc.at {
			t.Errorf("n=%d: got p%v=%v ok=%v, want p%v=%v ok=%v", tc.n, pct, v, ok, tc.pct, tc.at, tc.ok)
		}
		if ok {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: only %d samples beyond p%v", tc.n, beyond, pct)
			}
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{7, 1, 3, 5, 9}, 2, 5, 8},
	} {
		q1, q2, q3, ok := quartiles(tc.xs)
		if !ok || q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample reported ok")
	}
	if m := median(seq(4)); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

func TestParseManifest(t *testing.T) {
	good := `{"schema":1,"benchmark":"gcc","trace_sha256":"ab","trace_refs":1000000,"configs":160,
		"workers":2,"wall_seconds":2.1,"sim_seconds":4.0,"completed":158,"resumed":0,"retried":0,
		"failed":2,"cancelled":0,"errors_by_category":{"timeout":2},"exit_status":3}`
	m, err := parseManifest([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	if m.Configs != 160 || m.Completed != 158 || m.Failed != 2 || m.TraceRefs != 1_000_000 {
		t.Errorf("parsed %+v", m)
	}
	for _, bad := range []string{
		`not json`,
		`{"configs":0}`,
		`{"configs":160,"completed":150,"failed":2}`, // points unaccounted for
	} {
		if _, err := parseManifest([]byte(bad)); err == nil {
			t.Errorf("parseManifest(%s) accepted", bad)
		}
	}
}

func TestRusage(t *testing.T) {
	if got := maxRSSMB(3 * 1024); got != 3 {
		t.Errorf("maxRSSMB(3072 KiB) = %v MB, want 3", got)
	}
	if got := rusageMB(nil); got != 0 {
		t.Errorf("rusageMB(nil) = %v", got)
	}
	// A real child: this test binary listing no tests. Its peak RSS is a
	// few MB, not bytes or gigabytes, which pins the KiB unit.
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	if err := cmd.Run(); err != nil {
		t.Fatal(err)
	}
	if mb := rusageMB(cmd.ProcessState); mb < 1 || mb > 1024 {
		t.Errorf("child peak RSS %v MB, want between 1 and 1024", mb)
	}
}

func TestListeningAddr(t *testing.T) {
	addr, ok := listeningAddr("vmserved: listening on 127.0.0.1:40251 (engine engine/1+abc)")
	if !ok || addr != "127.0.0.1:40251" {
		t.Errorf("got %q %v", addr, ok)
	}
	if _, ok := listeningAddr("vmserved: draining (up to 1m0s)"); ok {
		t.Error("parsed an address from a line without one")
	}
}

const sampleCSV = "benchmark,vm,l1_bytes,l2_bytes,l1_line,l2_line,tlb_entries,mcpi,vmcpi,int_cpi_10,int_cpi_50,int_cpi_200,interrupts,itlb_missrate,dtlb_missrate\n" +
	"mc4,ultrix,32768,2097152,64,128,128,7.439867,9.157217,0.049622,0.248111,0.992444,8932,0.001942,0.008644\n"

func TestOneByteCSVCorruptionFailsCanary(t *testing.T) {
	c := seedCanaries{CSV: map[string]string{"gcc": sha256Hex([]byte(sampleCSV))}}
	if err := c.checkCSV("gcc", []byte(sampleCSV)); err != nil {
		t.Fatalf("intact CSV rejected: %v", err)
	}
	for i := 0; i < len(sampleCSV); i++ {
		bad := []byte(sampleCSV)
		bad[i] ^= 1
		if err := c.checkCSV("gcc", bad); err == nil {
			t.Fatalf("CSV with byte %d flipped passed the canary check", i)
		}
	}
	if err := c.checkCSV("vortex", []byte(sampleCSV)); err == nil {
		t.Error("a campaign without a recording passed")
	}
}

const sampleResult = `{
  "vm": "ultrix",
  "mcpi": 7.439866666666667,
  "vmcpi": 9.157216666666667,
  "events": {"L1d-miss": 50821, "page-fault": 7912, "shootdown": 23736},
  "cores": 4
}`

func TestMulticoreCanary(t *testing.T) {
	got, err := resultCanary("ultrix/lru", []byte(sampleResult))
	if err != nil {
		t.Fatal(err)
	}
	want := pointCanary{Label: "ultrix/lru", MCPI: "7.439866666666667", VMCPI: "9.157216666666667", PageFaults: 7912, Shootdowns: 23736}
	if got != want {
		t.Fatalf("parsed %+v, want %+v", got, want)
	}
	c := seedCanaries{Multicore: []pointCanary{want}}
	if err := c.checkPoint(0, got); err != nil {
		t.Errorf("matching point rejected: %v", err)
	}
	row := csvRows([]byte(sampleCSV))[0]
	if err := checkCSVRow(row, got); err != nil {
		t.Errorf("matching CSV row rejected: %v", err)
	}
	for _, mutate := range []func(*pointCanary){
		func(p *pointCanary) { p.MCPI = "7.439866666666668" },
		func(p *pointCanary) { p.VMCPI = "9.157216666666666" },
		func(p *pointCanary) { p.PageFaults++ },
		func(p *pointCanary) { p.Shootdowns-- },
	} {
		bad := got
		mutate(&bad)
		if err := c.checkPoint(0, bad); err == nil {
			t.Errorf("moved canary %+v passed", bad)
		}
	}
	if err := checkCSVRow(strings.Replace(row, "7.439867", "7.439868", 1), got); err == nil {
		t.Error("CSV row with a moved mcpi passed")
	}
	if _, err := resultCanary("x", []byte(`{"vm":"ultrix"}`)); err == nil {
		t.Error("result without mcpi accepted")
	}
}

func TestEverySeedHasCanaries(t *testing.T) {
	for arg := int64(-3); arg < 2*seedClasses; arg++ {
		s := inputSeed(arg)
		if s < 1 || s > seedClasses {
			t.Fatalf("inputSeed(%d) = %d, outside 1..%d", arg, s, seedClasses)
		}
		if inputSeed(arg) != inputSeed(arg+seedClasses) {
			t.Fatalf("inputSeed is not periodic at %d", arg)
		}
		c, err := loadCanaries(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workloads {
			for _, cp := range w.campaigns {
				if c.CSV[cp.trace.name] == "" {
					t.Errorf("seed %d: no CSV digest for %s", s, cp.trace.name)
				}
			}
		}
		if got, want := len(c.Multicore), len(workloads[1].campaigns[0].configs(s)); got != want {
			t.Errorf("seed %d: %d multicore canaries, want %d", s, got, want)
		}
	}
}

func TestCampaignSizes(t *testing.T) {
	for _, tc := range []struct {
		c    campaign
		want int
	}{
		{workloads[0].campaigns[0], len(paperVMs) * 8 * 4},
		{workloads[1].campaigns[0], len(mcVMs) * len(mcPolicies)},
	} {
		cfgs := tc.c.configs(7)
		if len(cfgs) != tc.want {
			t.Errorf("%s: %d points, want %d", tc.c.trace.name, len(cfgs), tc.want)
		}
		for _, cfg := range cfgs {
			if cfg.Seed != 7 {
				t.Fatalf("%s: point seed %d, want 7", tc.c.trace.name, cfg.Seed)
			}
		}
	}
}

func TestLedgerAttribution(t *testing.T) {
	l := newLedger(true)
	l.do("outer", func() error {
		l.do("inner", func() error { return nil }) //nolint:errcheck
		return nil
	}) //nolint:errcheck
	if len(l.spans) != 2 || l.spans[1].Parent != 0 || l.spans[0].Parent != -1 {
		t.Fatalf("spans %+v", l.spans)
	}
	if l.covered() < 0 {
		t.Error("negative coverage")
	}
	self := l.selfTimes()
	if self["outer"] < 0 || self["inner"] < 0 {
		t.Errorf("negative self time: %v", self)
	}
	off := newLedger(false)
	if _, err := off.do("x", func() error { return nil }); err != nil || len(off.spans) != 0 {
		t.Error("a ledger with recording off kept spans")
	}
}

func TestTables(t *testing.T) {
	var runs bytes.Buffer
	for i, v := range []float64{3, 1, 2} {
		r := result{Correct: i != 1, Attempted: 10, Failed: i, Metrics: map[string]metric{
			"sim_refs_per_s": {Value: v * 1e6, Unit: "1/s"}, "setup_s": {Value: v / 10, Unit: "s"}}}
		data, _ := json.Marshal(r)
		runs.WriteString("perfbench: some progress line\n")
		runs.Write(append(data, '\n'))
	}
	rs, err := parseResults(&runs)
	if err != nil || len(rs) != 3 {
		t.Fatalf("parsed %d results, err %v", len(rs), err)
	}
	var out bytes.Buffer
	if err := writeTables(&out, []tableInput{{workload: "paper-sweep", results: rs}}); err != nil {
		t.Fatal(err)
	}
	want := "### paper-sweep\n\n| metric | unit | median | q1 | q3 | runs |\n|---|---|---:|---:|---:|---:|\n" +
		"| setup_s | s | 0.2 | 0.1 | 0.3 | 3 |\n" +
		"| sim_refs_per_s | 1/s | 2e+06 | 1e+06 | 3e+06 | 3 |\n" +
		"\n2 of 3 runs correct; 3 of 30 operations failed.\n\n"
	if out.String() != want {
		t.Errorf("tables:\n%s\nwant:\n%s", out.String(), want)
	}
	if err := writeTables(&out, []tableInput{{workload: "empty"}}); err == nil {
		t.Error("a workload without results rendered")
	}
}
