package harness

import (
	"bytes"
	"fmt"

	"tlrsim/internal/core"
	"tlrsim/internal/proc"
	"tlrsim/internal/stats"
	"tlrsim/internal/workloads"
)

// cmWorkload is one row of the contention matrix: a stable label and a
// workload builder, simulated at o.AppProcs under BASE (the speedup
// denominator) and under TLR with each contention-management policy.
type cmWorkload struct {
	label string
	build func() workloads.Workload
}

// cmWorkloads enumerates the matrix rows: the three microbenchmarks of
// Figures 8-10 (the extremes of the conflict spectrum), the seven Figure 11
// application kernels, and the two open-loop service rates of the
// steady-state study (the only rows with a meaningful end-to-end p99 —
// closed-loop rows have no queueing delay to measure).
func cmWorkloads(o Options) []cmWorkload {
	rows := []cmWorkload{
		{"fig8-multi-counter", func() workloads.Workload {
			return &workloads.MultipleCounter{TotalOps: o.scaled(4096)}
		}},
		{"fig9-single-counter", func() workloads.Workload {
			return &workloads.SingleCounter{TotalOps: o.scaled(2048)}
		}},
		{"fig10-linked-list", func() workloads.Workload {
			return &workloads.LinkedList{TotalOps: o.scaled(1024)}
		}},
	}
	for _, build := range AppSet(o) {
		rows = append(rows, cmWorkload{build().Name(), build})
	}
	return rows
}

// ContentionMatrix runs the policy-vs-workload study: every contention-
// management policy (core.CMs) against every matrix row, each normalized to
// a BASE run of the same workload. Per cell it reports cycles, speedup over
// BASE, abort rate (aborts per speculative start), fallback rate (fallbacks
// per critical-section exit), and — for the open-loop service rows — the
// end-to-end p99 request latency.
//
// All rows run at o.AppProcs, in one runPoints call. Closed-loop rows fork
// one warm prefix per workload across BASE and all policy variants (scheme
// and policy are reset knobs, not machine shape); the service rows attach a
// telemetry recorder per point, as ServiceSweep does. Options.CM is ignored:
// the matrix enumerates the policies itself.
func ContentionMatrix(o Options) (*Result, error) {
	o.CM = core.CMTimestamp // or runPoints would put o.CM in the timestamp column
	cms := core.CMs()
	// One column per policy after BASE, the speedup denominator.
	cols := append([]string{"BASE"}, cmLabels(cms)...)
	cfgs := []proc.Config{MachineConfig(o.AppProcs, proc.Base, o.Seed)}
	for _, cm := range cms {
		cfg := MachineConfig(o.AppProcs, proc.TLR, o.Seed)
		cfg.Policy.CM = cm
		cfgs = append(cfgs, cfg)
	}
	label := func(row string, col int) string {
		return fmt.Sprintf("cm %s %s procs=%d", row, cols[col], o.AppProcs)
	}

	var rows []string
	var points []point
	for _, row := range cmWorkloads(o) {
		rows = append(rows, row.label)
		for k, cfg := range cfgs {
			points = append(points, point{label: label(row.label, k), cfg: cfg, build: row.build, fork: "cm-" + row.label})
		}
	}
	// Open-loop service rows: one recorder per point for the e2e tail.
	requests := o.scaled(4096)
	tel := &serviceTelemetry{}
	for _, rate := range DefaultServiceOptions().Rates {
		row := "service-" + rate.Label
		rows = append(rows, row)
		for k, cfg := range cfgs {
			points = append(points, tel.point(len(points), label(row, k), cfg, requests, rate.MeanGap, o.Seed))
		}
	}
	runs, err := tel.run(o, points)
	if err != nil {
		return nil, err
	}

	res := &Result{Name: "cm", Runs: make(map[string]map[int]*stats.Run), Variants: cols, KeyCol: "workload"}
	t := &stats.Table{Header: []string{
		"workload", "policy", "cycles", "speedup", "abort%", "fb%", "e2eP99",
	}}
	for ri, row := range rows {
		first := ri * len(cols)
		base := runs[first]
		res.Runs[row] = map[int]*stats.Run{0: base}
		for k := 1; k < len(cols); k++ {
			run := runs[first+k]
			res.Runs[row][k] = run
			p99 := "-"
			if rec := tel.recs[first+k]; rec != nil {
				e2e, _ := rec.Summary()
				p99 = fmt.Sprintf("%d", e2e.P99)
			}
			t.Add(row, cols[k],
				fmt.Sprintf("%d", run.Cycles),
				fmt.Sprintf("%.3f", run.Speedup(base)),
				pct(run.Aborts, run.Starts),
				pct(run.Fallbacks, run.Commits+run.Fallbacks),
				p99,
			)
		}
	}

	var b bytes.Buffer
	fmt.Fprintf(&b, "Contention management: policy-vs-workload matrix at %d processors "+
		"(speedup over BASE; aborts per start; fallbacks per critical-section exit)\n", o.AppProcs)
	b.WriteString(t.String())
	res.Report = b.String()
	return res, nil
}

// pct formats num/den as a percentage, "-" when the denominator is zero.
func pct(num, den uint64) string {
	if den == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", 100*float64(num)/float64(den))
}

func cmLabels(cms []core.CM) []string {
	out := make([]string, len(cms))
	for i, cm := range cms {
		out[i] = cm.String()
	}
	return out
}
