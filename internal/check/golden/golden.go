// Package golden pins the CSV output of every paper artifact —
// Tables 1–4 and Figures 6–12 — and of the hybrids study, which runs
// the bundled walkers the figures do not, at a reduced trace length, so
// that any change to the simulator that shifts a published number is
// caught as a test failure rather than discovered after the fact in a
// regenerated report.
//
// The goldens live in testdata/<id>.csv and are regenerated with
//
//	go test ./internal/check/golden -run TestGoldenResults -update
//
// Comparison is cell-wise: numeric cells are compared under a small
// relative tolerance (so a benign change in float formatting does not
// fail the suite), everything else must match exactly.
package golden

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/experiments"
)

// PaperIDs lists the artifacts that carry a golden file: the paper's
// four tables and seven figures, in presentation order, then the hybrids
// study (§4.2/§5), which pins the walkers no figure exercises.
func PaperIDs() []string {
	return []string{
		"tab1", "tab2", "tab3", "tab4",
		"fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12",
		"hybrids",
	}
}

// Opts returns the fixed options every golden is generated under. The
// trace is shortened well below the headline runs so the whole suite
// stays in test-time territory; the numbers are pinned, not published.
func Opts() experiments.Options {
	return experiments.Options{Quick: true, Instructions: 30_000, Seed: 42}
}

// Generate runs the artifact under the fixed golden options and returns
// its CSV.
func Generate(id string) (string, error) {
	rep, err := experiments.Run(id, Opts())
	if err != nil {
		return "", err
	}
	if strings.TrimSpace(rep.CSV) == "" {
		return "", fmt.Errorf("golden: experiment %q produced no CSV", id)
	}
	return rep.CSV, nil
}

// Tolerance is the relative error allowed between numeric cells.
const Tolerance = 1e-6

// Compare diffs two CSV documents cell by cell and returns a
// descriptive error at the first mismatch, or nil when they agree.
func Compare(got, want string) error {
	gl := splitLines(got)
	wl := splitLines(want)
	if len(gl) != len(wl) {
		return fmt.Errorf("golden: %d rows, want %d", len(gl), len(wl))
	}
	for r := range wl {
		gc := strings.Split(gl[r], ",")
		wc := strings.Split(wl[r], ",")
		if len(gc) != len(wc) {
			return fmt.Errorf("golden: row %d has %d columns, want %d\n got: %s\nwant: %s",
				r+1, len(gc), len(wc), gl[r], wl[r])
		}
		for c := range wc {
			if err := compareCell(gc[c], wc[c]); err != nil {
				return fmt.Errorf("golden: row %d column %d: %v\n got: %s\nwant: %s",
					r+1, c+1, err, gl[r], wl[r])
			}
		}
	}
	return nil
}

// compareCell accepts equal strings, or numbers within Tolerance.
func compareCell(got, want string) error {
	g, w := strings.TrimSpace(got), strings.TrimSpace(want)
	if g == w {
		return nil
	}
	gf, gerr := strconv.ParseFloat(g, 64)
	wf, werr := strconv.ParseFloat(w, 64)
	if gerr != nil || werr != nil {
		return fmt.Errorf("%q != %q", g, w)
	}
	scale := math.Max(math.Abs(gf), math.Abs(wf))
	if math.Abs(gf-wf) <= Tolerance*math.Max(scale, 1) {
		return nil
	}
	return fmt.Errorf("%v != %v (beyond tolerance %g)", gf, wf, Tolerance)
}

// splitLines normalizes line endings and trims a trailing newline so
// the comparison is insensitive to how the file was written out.
func splitLines(s string) []string {
	s = strings.ReplaceAll(s, "\r\n", "\n")
	s = strings.TrimRight(s, "\n")
	return strings.Split(s, "\n")
}
