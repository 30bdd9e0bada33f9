// Package runner executes independent simulation jobs across a bounded
// worker pool.
//
// Each simulated machine is an isolated, deterministic discrete-event run
// (internal/sim): it shares no mutable state with any other machine, so
// whole machines can execute concurrently on host cores without perturbing
// the simulated results. The pool preserves that determinism at the
// reporting layer by returning results in job order regardless of
// completion order — an experiment's rendered report is a pure function of
// its job list, not of host scheduling.
//
// Loop is the one worker loop: Pool runs its units on it, and so does the
// litmus containment sweep.
//
// Workers keep per-shape machine caches (proc.Machine.Reset is exact, so a
// rewound machine is indistinguishable from a fresh one) and experiments
// can group jobs into Units that share a simulated prefix via snapshot
// forking — both reuse paths exist for sweep throughput and neither is
// allowed to change a single reported byte.
package runner

import (
	"fmt"
	"runtime"
	"sync"

	"tlrsim/internal/proc"
	"tlrsim/internal/stats"
	"tlrsim/internal/workloads"
)

// Job is one simulated machine: a configuration plus a workload builder.
// Build is called inside the worker goroutine, so every job gets a fresh
// workload instance and jobs never share workload state.
type Job struct {
	// Label identifies the job in progress lines and error messages.
	Label string
	// Config is the machine under test.
	Config proc.Config
	// Build constructs the workload the machine runs.
	Build func() workloads.Workload
}

// Unit is a group of jobs one worker executes together, in order. Exec, when
// non-nil, runs the whole group itself (one result per job, in job order) —
// the hook experiments use to fork a shared warm prefix across the group's
// configurations instead of simulating it once per job. A nil Exec runs each
// job independently on the worker's cached machines.
type Unit struct {
	Jobs []Job
	Exec func(mc *MachineCache, jobs []Job) ([]*stats.Run, error)
}

// Progress is called after each job completes. done counts completed jobs
// including this one; calls are serialised but arrive in completion order,
// which under parallel execution is not job order.
type Progress func(done, total int, label string, run *stats.Run)

// Pool is a bounded-concurrency job scheduler.
type Pool struct {
	// Workers caps concurrent units. <= 0 means runtime.GOMAXPROCS(0);
	// 1 runs the units one at a time, in order.
	Workers int
	// Progress, when non-nil, receives one callback per completed job.
	Progress Progress
	// Cold disables warm-machine reuse: every job constructs a fresh
	// machine. Results are identical either way — Reset is exact — so this
	// exists for cross-checking and benchmarking.
	Cold bool
}

// MachineCache is one worker's pool of warm machines, keyed by construction
// shape. It is single-goroutine state: each worker owns one.
type MachineCache struct {
	cold     bool
	machines map[proc.ResetShape]*proc.Machine
}

// NewMachineCache returns an empty cache; cold caches never reuse.
func NewMachineCache(cold bool) *MachineCache {
	return &MachineCache{cold: cold, machines: make(map[proc.ResetShape]*proc.Machine)}
}

// Acquire returns a machine constructed (or exactly rewound) for cfg. The
// caller owns it until Release; a machine that errors out mid-run must NOT
// be released — dropping it is how poisoned (non-quiescent) machines leave
// the pool.
func (c *MachineCache) Acquire(cfg proc.Config) *proc.Machine {
	if c == nil || c.cold {
		return proc.NewMachine(cfg)
	}
	key := cfg.ResetShape()
	if m := c.machines[key]; m != nil {
		// Clear rather than delete the entry: a ResetShape is larger than
		// the 128 bytes a map stores inline, so re-inserting a deleted key
		// would allocate on every Release.
		c.machines[key] = nil
		if m.Reset(cfg) == nil {
			return m
		}
	}
	return proc.NewMachine(cfg)
}

// Release returns a successfully finished machine to the cache for reuse.
func (c *MachineCache) Release(m *proc.Machine) {
	if c == nil || c.cold {
		return
	}
	c.machines[m.Config().ResetShape()] = m
}

// Run executes the jobs and returns their results in job order. On failure
// the error of the earliest-indexed failed job is returned (so the reported
// error does not depend on host scheduling), and jobs not yet started are
// cancelled.
func (p *Pool) Run(jobs []Job) ([]*stats.Run, error) {
	units := make([]Unit, len(jobs))
	for i, j := range jobs {
		units[i] = Unit{Jobs: []Job{j}}
	}
	byUnit, err := p.RunUnits(units)
	if err != nil {
		return nil, err
	}
	results := make([]*stats.Run, len(jobs))
	for i, rs := range byUnit {
		results[i] = rs[0]
	}
	return results, nil
}

// RunUnits executes the units and returns their results in unit order (one
// result slice per unit, one result per job). Units are the scheduling
// grain: a unit runs entirely on one worker, so its Exec can share machines
// and snapshots across its jobs. Error semantics match Run: the error of the
// earliest-indexed failed unit wins, remaining units are cancelled.
func (p *Pool) RunUnits(units []Unit) ([][]*stats.Run, error) {
	total := 0
	for _, u := range units {
		total += len(u.Jobs)
	}
	results := make([][]*stats.Run, len(units))
	var (
		mu   sync.Mutex
		done int
	)
	err := Loop(len(units), p.Workers,
		func() *MachineCache { return NewMachineCache(p.Cold) },
		func(mc *MachineCache, i int) error {
			runs, err := p.executeUnit(mc, units[i])
			if err != nil {
				return err
			}
			results[i] = runs
			if p.Progress != nil {
				mu.Lock()
				defer mu.Unlock()
				for k, run := range runs {
					done++
					p.Progress(done, total, units[i].Jobs[k].Label, run)
				}
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// Loop runs items 0..n-1 on up to workers goroutines (<= 0 means
// runtime.GOMAXPROCS(0)) and waits for them. Each worker owns the state
// newWorker returns for it, so fn needs no locking to use it, and claims the
// next item in index order only once its previous one has returned. After an
// item fails no further items start; the error of the lowest-indexed failure
// is returned, so the outcome does not depend on host scheduling.
func Loop[W any](n, workers int, newWorker func() W, fn func(w W, item int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	var (
		mu     sync.Mutex
		wg     sync.WaitGroup
		next   int
		failed = n // lowest failed index; n while none has failed
		first  error
	)
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if first != nil || next >= n {
			return 0, false
		}
		next++
		return next - 1, true
	}
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			w := newWorker()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				if err := fn(w, i); err != nil {
					mu.Lock()
					if i < failed {
						failed, first = i, err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// executeUnit runs one unit on the worker's cache.
func (p *Pool) executeUnit(mc *MachineCache, u Unit) ([]*stats.Run, error) {
	if u.Exec != nil {
		runs, err := u.Exec(mc, u.Jobs)
		if err == nil && len(runs) != len(u.Jobs) {
			return nil, fmt.Errorf("runner: unit produced %d results for %d jobs", len(runs), len(u.Jobs))
		}
		return runs, err
	}
	runs := make([]*stats.Run, len(u.Jobs))
	for i, j := range u.Jobs {
		run, err := execute(mc, j)
		if err != nil {
			return nil, err
		}
		runs[i] = run
	}
	return runs, nil
}

// execute runs one job to completion on a cached machine and aggregates its
// counters.
func execute(mc *MachineCache, j Job) (*stats.Run, error) {
	m := mc.Acquire(j.Config)
	if err := workloads.RunOn(m, j.Build()); err != nil {
		// The machine may be mid-flight (blocked threads, pending events);
		// drop it rather than poison the cache.
		if j.Label != "" {
			return nil, fmt.Errorf("%s: %w", j.Label, err)
		}
		return nil, err
	}
	run := stats.Collect(m)
	mc.Release(m)
	return run, nil
}
