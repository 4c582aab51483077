package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// recordCanaries runs every campaign once for each input seed through
// the tools and writes the expected outputs to canaries.json. It is for
// a deliberate change of simulated results only: a faster program must
// reproduce the recorded canaries exactly.
func recordCanaries(e *env) error {
	t := canaryTable{
		Note: "Expected outputs per input seed, recorded by `bash perfbench/run.sh --record`. " +
			"csv_sha256 pins each campaign CSV; multicore_points pin mcpi, vmcpi, page faults and shootdowns per point.",
		Seeds: map[string]seedCanaries{},
	}
	for i := int64(0); i < seedClasses; i++ {
		e.seed = inputSeed(i)
		sc := seedCanaries{CSV: map[string]string{}}
		done := map[string]bool{}
		for _, w := range workloads {
			for _, c := range w.campaigns {
				if done[c.trace.name] {
					continue
				}
				done[c.trace.name] = true
				if _, err := runTool(e.ctx, e.tool("vmtrace"), c.trace.vmtraceArgs(e.seed, c.trace.path(e.dir))...); err != nil {
					return err
				}
				r, err := runTool(e.ctx, e.tool("vmsweep"), c.sweepArgs(e.seed, e.dir, e.workers)...)
				if err != nil {
					return err
				}
				sc.CSV[c.trace.name] = sha256Hex(r.stdout)
				if c.trace.bench != "" {
					continue
				}
				cfgs := c.configs(e.seed)
				got, errs := e.multicoreResults(c, cfgs)
				rows := csvRows(r.stdout)
				for j := range cfgs {
					if errs[j] != nil {
						return errs[j]
					}
					if err := checkCSVRow(rows[j], got[j]); err != nil {
						return err
					}
				}
				sc.Multicore = got
			}
		}
		t.Seeds[strconv.FormatUint(e.seed, 10)] = sc
		fmt.Fprintf(os.Stderr, "perfbench: recorded input seed %d\n", e.seed)
	}
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(canariesFile, append(data, '\n'), 0o644)
}
