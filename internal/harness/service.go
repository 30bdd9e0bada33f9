package harness

import (
	"bytes"
	"fmt"
	"io"

	"tlrsim/internal/proc"
	"tlrsim/internal/stats"
	"tlrsim/internal/telemetry"
	"tlrsim/internal/workloads"
)

// ServiceRate is one open-loop arrival-rate point: a stable label and the
// mean per-CPU inter-arrival gap in cycles (smaller gap = heavier load).
type ServiceRate struct {
	Label   string
	MeanGap uint64
}

// ServiceOptions configures the steady-state service experiment.
type ServiceOptions struct {
	// WindowCycles is the telemetry tumbling-window length (default 100_000).
	WindowCycles uint64
	// Rates are the arrival-rate points (default DefaultServiceOptions').
	Rates []ServiceRate
	// Telemetry, when non-nil, receives the full per-window stream of every
	// (rate, scheme) point, concatenated in enumeration order under
	// "# label" comment headers. Format is JSONL unless CSV is set.
	Telemetry io.Writer
	// CSV selects CSV window export instead of JSON Lines.
	CSV bool
}

// DefaultServiceOptions returns the standard two-rate sweep: a moderate load
// the store absorbs with idle slack, and a heavy load near saturation where
// queueing dominates the tail.
func DefaultServiceOptions() ServiceOptions {
	return ServiceOptions{
		Rates: []ServiceRate{
			{Label: "moderate", MeanGap: 4000},
			{Label: "heavy", MeanGap: 1200},
		},
	}
}

func (so ServiceOptions) withDefaults() ServiceOptions {
	if so.WindowCycles == 0 {
		so.WindowCycles = 100_000
	}
	if len(so.Rates) == 0 {
		so.Rates = DefaultServiceOptions().Rates
	}
	return so
}

// serviceSchemes are the lock schemes the service experiment compares: the
// paper's baseline, the best software queue lock, and TLR.
var serviceSchemes = []proc.Scheme{proc.Base, proc.MCS, proc.TLR}

// ServiceSweep runs the open-loop service workload (deterministic Poisson
// arrivals into a Zipf-contended lock-based KV store, internal/workloads
// Service) at each arrival rate under BASE, MCS, and TLR, with windowed tail
// telemetry attached to every point. The report carries one summary row per
// point — end-of-run and steady-state p50/p99/p999 of both end-to-end
// (queueing included) and critical-section latency — followed by each
// point's per-window recorder report. Points are enumerated up front and
// results (including the telemetry streams) are assembled in enumeration
// order, so output is byte-identical at any Options.Jobs.
func ServiceSweep(o Options, so ServiceOptions) (*Result, error) {
	so = so.withDefaults()
	requests := o.scaled(4096)
	tel := &serviceTelemetry{window: so.WindowCycles}
	var points []point
	streams := make([]*bytes.Buffer, len(so.Rates)*len(serviceSchemes))
	if so.Telemetry != nil {
		tel.newSink = func(i int, label string) windowSink {
			streams[i] = &bytes.Buffer{}
			if so.CSV {
				return telemetry.NewCSVWindows(streams[i])
			}
			j := telemetry.NewJSONLWindows(streams[i])
			j.Label = label
			return j
		}
	}
	for _, rate := range so.Rates {
		for _, scheme := range serviceSchemes {
			points = append(points, tel.point(len(points),
				fmt.Sprintf("service %s %v procs=%d", rate.Label, scheme, o.AppProcs),
				MachineConfig(o.AppProcs, scheme, o.Seed), requests, rate.MeanGap, o.Seed))
		}
	}
	runs, err := tel.run(o, points)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Name:     "service",
		Runs:     make(map[string]map[int]*stats.Run),
		Variants: schemeLabels(serviceSchemes),
		KeyCol:   "rate",
	}
	t := &stats.Table{Header: []string{
		"rate", "scheme", "cycles", "reqs", "steady@",
		"e2e p50/p99/p999", "cs p50/p99/p999",
		"steady e2e p50/p99/p999",
	}}
	i := 0
	for _, rate := range so.Rates {
		res.Runs[rate.Label] = make(map[int]*stats.Run)
		for vi := range serviceSchemes {
			run, rec := runs[i], tel.recs[i]
			i++
			res.Runs[rate.Label][vi] = run
			e2e, cs := rec.Summary()
			steady := "-"
			steadyCell := "-"
			if rec.SteadyAt() >= 0 {
				steady = fmt.Sprintf("w%d", rec.SteadyAt())
				se, _ := rec.SteadySummary()
				steadyCell = fmt.Sprintf("%d/%d/%d", se.P50, se.P99, se.P999)
			}
			t.Add(rate.Label, serviceSchemes[vi].String(),
				fmt.Sprintf("%d", run.Cycles),
				fmt.Sprintf("%d", e2e.Count),
				steady,
				fmt.Sprintf("%d/%d/%d", e2e.P50, e2e.P99, e2e.P999),
				fmt.Sprintf("%d/%d/%d", cs.P50, cs.P99, cs.P999),
				steadyCell,
			)
		}
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "Open-loop service: tail latency at %d processors, %d requests (latencies in cycles)\n",
		o.AppProcs, requests)
	b.WriteString(t.String())
	for i, p := range points {
		fmt.Fprintf(&b, "\n== %s ==\n%s", p.label, tel.recs[i].Report())
	}
	res.Report = b.String()

	if so.Telemetry != nil {
		for i, p := range points {
			if so.CSV {
				if _, err := fmt.Fprintf(so.Telemetry, "# %s\n%s", p.label, streams[i].Bytes()); err != nil {
					return nil, fmt.Errorf("telemetry write: %w", err)
				}
				continue
			}
			if _, err := fmt.Fprintf(so.Telemetry, "%s", streams[i].Bytes()); err != nil {
				return nil, fmt.Errorf("telemetry write: %w", err)
			}
		}
	}
	return res, nil
}

// windowSink is a telemetry window sink that flushes on Close.
type windowSink interface {
	telemetry.WindowSink
	Close() error
}

// serviceTelemetry keeps the telemetry of an experiment's open-loop service
// points by point index. A point's build creates its recorder, and its
// window sink when newSink is set, on the worker that runs it; run finishes
// both once every point has run.
type serviceTelemetry struct {
	// window is the recorder's tumbling-window length (0: the default).
	window  uint64
	newSink func(i int, label string) windowSink
	recs    []*telemetry.Recorder
	sinks   []windowSink
}

// point returns an open-loop service point: requests arrivals at mean gap
// per CPU into the Service store, recorded by the recorder at index i, which
// must be the point's index in the experiment's points.
func (t *serviceTelemetry) point(i int, label string, cfg proc.Config, requests int, gap uint64, seed int64) point {
	return point{label: label, cfg: cfg, build: func() workloads.Workload {
		tcfg := telemetry.Config{WindowCycles: t.window}
		if t.newSink != nil {
			t.sinks[i] = t.newSink(i, label)
			tcfg.Sink = t.sinks[i]
		}
		t.recs[i] = telemetry.NewRecorder(tcfg)
		return &workloads.Service{Requests: requests, MeanGap: gap, Seed: seed, Rec: t.recs[i]}
	}}
}

// run executes the points through runPoints, then finishes every service
// recorder at its run's final cycle and closes its sink.
func (t *serviceTelemetry) run(o Options, points []point) ([]*stats.Run, error) {
	t.recs = make([]*telemetry.Recorder, len(points))
	t.sinks = make([]windowSink, len(points))
	runs, err := runPoints(o, points)
	if err != nil {
		return nil, err
	}
	for i, rec := range t.recs {
		if rec == nil {
			continue
		}
		rec.Finish(runs[i].Cycles)
		if sink := t.sinks[i]; sink != nil {
			if err := sink.Close(); err != nil {
				return nil, fmt.Errorf("%s: telemetry export: %w", points[i].label, err)
			}
		}
	}
	return runs, nil
}

func schemeLabels(schemes []proc.Scheme) []string {
	out := make([]string, len(schemes))
	for i, s := range schemes {
		out[i] = s.String()
	}
	return out
}
