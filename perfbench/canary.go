package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sim"
	"repro/internal/stats"
)

// canariesFile is where record mode writes the canaries, relative to the
// repository root.
const canariesFile = "perfbench/canaries.json"

//go:embed canaries.json
var canaryJSON []byte

// pointCanary pins one multicore point's results exactly. MCPI and VMCPI
// keep the literal JSON text vmsim -json prints.
type pointCanary struct {
	Label      string      `json:"label"`
	MCPI       json.Number `json:"mcpi"`
	VMCPI      json.Number `json:"vmcpi"`
	PageFaults uint64      `json:"page_faults"`
	Shootdowns uint64      `json:"shootdowns"`
}

// seedCanaries are the expected outputs for one input seed.
type seedCanaries struct {
	// CSV maps a campaign's trace name to the sha256 of its CSV.
	CSV map[string]string `json:"csv_sha256"`
	// Multicore pins the multicore-paging points in campaign order.
	Multicore []pointCanary `json:"multicore_points"`
}

type canaryTable struct {
	Note  string                  `json:"note"`
	Seeds map[string]seedCanaries `json:"seeds"`
}

func loadCanaries(seed uint64) (seedCanaries, error) {
	var t canaryTable
	if err := json.Unmarshal(canaryJSON, &t); err != nil {
		return seedCanaries{}, fmt.Errorf("canaries.json: %w", err)
	}
	c, ok := t.Seeds[strconv.FormatUint(seed, 10)]
	if !ok {
		return seedCanaries{}, fmt.Errorf("canaries.json has no entry for input seed %d", seed)
	}
	return c, nil
}

func sha256Hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// checkCSV compares a campaign CSV with its recorded digest.
func (c seedCanaries) checkCSV(name string, csv []byte) error {
	want, ok := c.CSV[name]
	if !ok {
		return fmt.Errorf("no recorded CSV digest for %s", name)
	}
	if got := sha256Hex(csv); got != want {
		return fmt.Errorf("%s CSV sha256 %s, recorded %s", name, got, want)
	}
	return nil
}

// pointLabel names a multicore point in canaries and error messages.
func pointLabel(cfg sim.Config) string {
	return fmt.Sprintf("%s/cores=%d/%s/frames=%d", cfg.VM, cfg.Cores, cfg.OSPolicy, cfg.MemFrames)
}

// resultCanary extracts the pinned figures from vmsim -json output.
func resultCanary(label string, jsonOut []byte) (pointCanary, error) {
	var r struct {
		MCPI   json.Number       `json:"mcpi"`
		VMCPI  json.Number       `json:"vmcpi"`
		Events map[string]uint64 `json:"events"`
	}
	dec := json.NewDecoder(bytes.NewReader(jsonOut))
	dec.UseNumber()
	if err := dec.Decode(&r); err != nil {
		return pointCanary{}, fmt.Errorf("%s: vmsim -json output: %w", label, err)
	}
	if r.MCPI == "" || r.VMCPI == "" {
		return pointCanary{}, fmt.Errorf("%s: vmsim -json output has no mcpi/vmcpi", label)
	}
	return pointCanary{Label: label, MCPI: r.MCPI, VMCPI: r.VMCPI,
		PageFaults: r.Events[stats.PageFault.String()], Shootdowns: r.Events[stats.Shootdown.String()]}, nil
}

// checkPoint compares one multicore point with its recording.
func (c seedCanaries) checkPoint(i int, got pointCanary) error {
	if i >= len(c.Multicore) {
		return fmt.Errorf("no recorded canary for multicore point %d (%s)", i, got.Label)
	}
	if want := c.Multicore[i]; got != want {
		return fmt.Errorf("multicore point %s: got mcpi=%s vmcpi=%s page_faults=%d shootdowns=%d, recorded %s %s %d %d (%s)",
			got.Label, got.MCPI, got.VMCPI, got.PageFaults, got.Shootdowns,
			want.MCPI, want.VMCPI, want.PageFaults, want.Shootdowns, want.Label)
	}
	return nil
}

// checkCSVRow ties a results canary to the CSV row vmsweep printed for
// the same point: the CSV carries mcpi and vmcpi to six decimals.
func checkCSVRow(row string, p pointCanary) error {
	f := strings.Split(row, ",")
	if len(f) < 9 {
		return fmt.Errorf("short CSV row %q", row)
	}
	for _, x := range []struct {
		col  string
		want json.Number
	}{{f[7], p.MCPI}, {f[8], p.VMCPI}} {
		v, err := x.want.Float64()
		if err != nil {
			return err
		}
		if s := strconv.FormatFloat(v, 'f', 6, 64); s != x.col {
			return fmt.Errorf("%s: CSV has %s, results give %s", p.Label, x.col, s)
		}
	}
	return nil
}

// csvRows splits a campaign CSV into its data rows.
func csvRows(csv []byte) []string {
	lines := strings.Split(strings.TrimRight(string(csv), "\n"), "\n")
	if len(lines) == 0 {
		return nil
	}
	return lines[1:]
}
