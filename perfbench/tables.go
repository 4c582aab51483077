package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// tableInput is one workload's benchmark results, one per run.
type tableInput struct {
	workload string
	results  []result
}

// parseResults reads benchmark output and keeps every line that is a
// result object, so whole captured stdout files and files of bare result
// lines both work.
func parseResults(r io.Reader) ([]result, error) {
	var out []result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var res result
		if err := json.Unmarshal([]byte(line), &res); err != nil || res.Metrics == nil {
			continue
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

// writeTables renders one markdown table per workload: each metric's
// median and quartiles over the runs, with the run count and the
// correctness tally underneath.
func writeTables(w io.Writer, inputs []tableInput) error {
	for _, in := range inputs {
		if len(in.results) == 0 {
			return fmt.Errorf("%s: no benchmark results", in.workload)
		}
		values := map[string][]float64{}
		units := map[string]string{}
		correct, attempted, failed := 0, 0, 0
		for _, r := range in.results {
			if r.Correct {
				correct++
			}
			attempted += r.Attempted
			failed += r.Failed
			for name, m := range r.Metrics {
				values[name] = append(values[name], m.Value)
				units[name] = m.Unit
			}
		}
		names := make([]string, 0, len(values))
		for n := range values {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "### %s\n\n| metric | unit | median | q1 | q3 | runs |\n|---|---|---:|---:|---:|---:|\n", in.workload)
		for _, n := range names {
			v := values[n]
			q1, q3 := "", ""
			if a, _, b, ok := quartiles(v); ok {
				q1, q3 = num(a), num(b)
			}
			fmt.Fprintf(w, "| %s | %s | %s | %s | %s | %d |\n", n, units[n], num(median(v)), q1, q3, len(v))
		}
		fmt.Fprintf(w, "\n%d of %d runs correct; %d of %d operations failed.\n\n", correct, len(in.results), failed, attempted)
	}
	return nil
}

func num(v float64) string { return fmt.Sprintf("%.4g", v) }

// runTables is the -tables mode: each argument is workload=file[,file...].
func runTables(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("-tables wants workload=results-file arguments")
	}
	var inputs []tableInput
	for _, a := range args {
		name, files, ok := strings.Cut(a, "=")
		if !ok || name == "" || files == "" {
			return fmt.Errorf("-tables: %q is not workload=file[,file...]", a)
		}
		in := tableInput{workload: name}
		for _, path := range strings.Split(files, ",") {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			rs, err := parseResults(f)
			f.Close()
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			in.results = append(in.results, rs...)
		}
		inputs = append(inputs, in)
	}
	return writeTables(os.Stdout, inputs)
}
