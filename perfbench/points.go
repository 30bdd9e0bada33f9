package main

import (
	"fmt"

	"tlrsim/internal/core"
	"tlrsim/internal/harness"
	"tlrsim/internal/proc"
	"tlrsim/internal/telemetry"
	"tlrsim/internal/workloads"
)

// The harness hides the machines of its experiments. To time each layer's
// public functions and read each layer's counters, the traced run replays
// every experiment point itself, so it needs the points: the tables below
// spell out, per experiment, the machine configuration, workload and fork
// group that the harness enumerates. The replay asserts that every replayed
// stats.Run equals the run the harness reported under the same label, so a
// table that drifts from the harness fails the benchmark instead of
// measuring something else.

// point is one simulated machine of a harness experiment.
type point struct {
	label string
	cfg   proc.Config
	build func() workloads.Workload
	// fork names the point's fork group: points sharing a key run on one
	// snapshotted warm prefix, forked per configuration.
	fork string
}

// scaled mirrors the harness's operation-count scaling.
func scaled(o harness.Options, n int) int {
	ops := o.Ops
	if ops <= 0 {
		ops = 1
	}
	if v := int(float64(n) * ops); v >= 1 {
		return v
	}
	return 1
}

var microSchemes = []proc.Scheme{proc.Base, proc.MCS, proc.SLE, proc.TLR}

func sweepPoints(o harness.Options, schemes []proc.Scheme, build func() workloads.Workload) []point {
	var pts []point
	for _, scheme := range schemes {
		for _, p := range o.Procs {
			pts = append(pts, point{
				label: fmt.Sprintf("%v procs=%d", scheme, p),
				cfg:   harness.MachineConfig(p, scheme, o.Seed),
				build: build,
			})
		}
	}
	return pts
}

func fig8Points(o harness.Options) []point {
	total := scaled(o, 4096)
	return sweepPoints(o, microSchemes,
		func() workloads.Workload { return &workloads.MultipleCounter{TotalOps: total} })
}

func fig9Points(o harness.Options) []point {
	total := scaled(o, 2048)
	schemes := append(append([]proc.Scheme{}, microSchemes...), proc.TLRStrictTS)
	return sweepPoints(o, schemes,
		func() workloads.Workload { return &workloads.SingleCounter{TotalOps: total} })
}

func fig10Points(o harness.Options) []point {
	total := scaled(o, 1024)
	return sweepPoints(o, microSchemes,
		func() workloads.Workload { return &workloads.LinkedList{TotalOps: total} })
}

func fig11Points(o harness.Options) []point {
	var pts []point
	for _, build := range harness.AppSet(o) {
		name := build().Name()
		for _, scheme := range []proc.Scheme{proc.Base, proc.SLE, proc.TLR, proc.MCS} {
			pts = append(pts, point{
				label: fmt.Sprintf("%s: %v procs=%d", name, scheme, o.AppProcs),
				cfg:   harness.MachineConfig(o.AppProcs, scheme, o.Seed),
				build: build,
			})
		}
	}
	return pts
}

func coarsePoints(o harness.Options) []point {
	var pts []point
	for _, c := range []struct {
		label  string
		scheme proc.Scheme
		coarse bool
	}{
		{"BASE/fine", proc.Base, false},
		{"BASE/coarse", proc.Base, true},
		{"TLR/fine", proc.TLR, false},
		{"TLR/coarse", proc.TLR, true},
	} {
		coarse := c.coarse
		pts = append(pts, point{
			label: fmt.Sprintf("%s procs=%d", c.label, o.AppProcs),
			cfg:   harness.MachineConfig(o.AppProcs, c.scheme, o.Seed),
			build: func() workloads.Workload {
				return &workloads.MP3D{Steps: scaled(o, 3072), Cells: 2048, Work: 20, Coarse: coarse}
			},
		})
	}
	return pts
}

func rmwPoints(o harness.Options) []point {
	var pts []point
	for _, build := range harness.AppSet(o) {
		name := build().Name()
		for vi, v := range []string{"BASE-no-opt", "BASE"} {
			cfg := harness.MachineConfig(o.AppProcs, proc.Base, o.Seed)
			cfg.UseRMWPredictor = vi == 1
			pts = append(pts, point{
				label: fmt.Sprintf("%s: %s procs=%d", name, v, o.AppProcs),
				cfg:   cfg,
				build: build,
			})
		}
	}
	return pts
}

// tlrConfig is the TLR machine with one policy mutation, the shape every
// ablation point takes.
func tlrConfig(o harness.Options, procs int, mutate func(*proc.Config)) proc.Config {
	cfg := harness.MachineConfig(procs, proc.TLR, o.Seed)
	mutate(&cfg)
	return cfg
}

func nackPoints(o harness.Options) []point {
	total := scaled(o, 2048)
	build := func() workloads.Workload { return &workloads.SingleCounter{TotalOps: total} }
	var pts []point
	for li, label := range []string{"deferral", "NACK"} {
		nack := li == 1
		for _, p := range o.Procs {
			pts = append(pts, point{
				label: fmt.Sprintf("%s procs=%d", label, p),
				cfg: tlrConfig(o, p, func(c *proc.Config) {
					c.Policy = core.DefaultPolicy()
					c.Policy.RetentionNACK = nack
				}),
				build: build,
				fork:  fmt.Sprintf("nack-p%d", p),
			})
		}
	}
	return pts
}

func queuePoints(o harness.Options) []point {
	rounds := scaled(o, 256)
	var pts []point
	for _, size := range []int{1, 2, 4, 8, 16} {
		size := size
		pts = append(pts, point{
			label: fmt.Sprintf("size=%d", size),
			cfg: tlrConfig(o, o.AppProcs, func(c *proc.Config) {
				c.Policy = core.DefaultPolicy()
				c.Policy.MaxDeferred = size
			}),
			build: func() workloads.Workload { return &workloads.ReadHeavy{Rounds: rounds} },
			fork:  "deferred-queue",
		})
	}
	return pts
}

func victimPoints(o harness.Options) []point {
	var pts []point
	for _, entries := range []int{0, 4, 16} {
		entries := entries
		pts = append(pts, point{
			label: fmt.Sprintf("victim=%d", entries),
			cfg: tlrConfig(o, 4, func(c *proc.Config) {
				c.Coherence.Cache.VictimEntries = entries
			}),
			build: func() workloads.Workload {
				return &workloads.ReadSet{Txns: scaled(o, 64), LinesPerTxn: 8}
			},
		})
	}
	return pts
}

func penaltyPoints(o harness.Options) []point {
	total := scaled(o, 1024)
	var pts []point
	for _, pen := range []uint64{1, 10, 100, 1000} {
		pen := pen
		pts = append(pts, point{
			label: fmt.Sprintf("penalty=%d", pen),
			cfg: tlrConfig(o, o.AppProcs, func(c *proc.Config) {
				c.RestartPenalty = pen
				c.Policy = core.DefaultPolicy()
				c.Policy.StrictTimestamps = true
			}),
			build: func() workloads.Workload { return &workloads.SingleCounter{TotalOps: total} },
			fork:  "restart-penalty",
		})
	}
	return pts
}

func storebufPoints(o harness.Options) []point {
	var pts []point
	for _, build := range harness.AppSet(o) {
		name := build().Name()
		for _, scheme := range []proc.Scheme{proc.Base, proc.TLR} {
			for vi, v := range []string{"blocking", "buffered"} {
				cfg := harness.MachineConfig(o.AppProcs, scheme, o.Seed)
				if vi == 1 {
					cfg.Coherence.StoreBufferEntries = 64
				}
				pts = append(pts, point{
					label: fmt.Sprintf("%s/%v: %s procs=%d", name, scheme, v, o.AppProcs),
					cfg:   cfg,
					build: build,
				})
			}
		}
	}
	return pts
}

// cmPoints mirrors harness.ContentionMatrix: the closed-loop rows (three
// micros and seven application kernels, each a fork group of BASE and TLR
// under every policy) and then the open-loop service rows, one standalone
// point each with a telemetry recorder attached.
func cmPoints(o harness.Options) []point {
	type row struct {
		label string
		build func() workloads.Workload
	}
	rows := []row{
		{"fig8-multi-counter", func() workloads.Workload {
			return &workloads.MultipleCounter{TotalOps: scaled(o, 4096)}
		}},
		{"fig9-single-counter", func() workloads.Workload {
			return &workloads.SingleCounter{TotalOps: scaled(o, 2048)}
		}},
		{"fig10-linked-list", func() workloads.Workload {
			return &workloads.LinkedList{TotalOps: scaled(o, 1024)}
		}},
	}
	for _, build := range harness.AppSet(o) {
		rows = append(rows, row{build().Name(), build})
	}
	cms := core.CMs()
	var pts []point
	for _, r := range rows {
		pts = append(pts, point{
			label: fmt.Sprintf("cm %s BASE procs=%d", r.label, o.AppProcs),
			cfg:   harness.MachineConfig(o.AppProcs, proc.Base, o.Seed),
			build: r.build,
			fork:  "cm-" + r.label,
		})
		for _, cm := range cms {
			cfg := harness.MachineConfig(o.AppProcs, proc.TLR, o.Seed)
			cfg.Policy.CM = cm
			pts = append(pts, point{
				label: fmt.Sprintf("cm %s %s procs=%d", r.label, cm, o.AppProcs),
				cfg:   cfg,
				build: r.build,
				fork:  "cm-" + r.label,
			})
		}
	}
	requests := scaled(o, 4096)
	for _, rate := range harness.DefaultServiceOptions().Rates {
		rate := rate
		build := func() workloads.Workload {
			return &workloads.Service{
				Requests: requests,
				MeanGap:  rate.MeanGap,
				Seed:     o.Seed,
				Rec:      telemetry.NewRecorder(telemetry.Config{}),
			}
		}
		pts = append(pts, point{
			label: fmt.Sprintf("cm service-%s BASE procs=%d", rate.Label, o.AppProcs),
			cfg:   harness.MachineConfig(o.AppProcs, proc.Base, o.Seed),
			build: build,
		})
		for _, cm := range cms {
			cfg := harness.MachineConfig(o.AppProcs, proc.TLR, o.Seed)
			cfg.Policy.CM = cm
			pts = append(pts, point{
				label: fmt.Sprintf("cm service-%s %s procs=%d", rate.Label, cm, o.AppProcs),
				cfg:   cfg,
				build: build,
			})
		}
	}
	return pts
}
