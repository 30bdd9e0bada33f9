package main

import (
	"fmt"
	"reflect"
	"time"

	"tlrsim/internal/proc"
	"tlrsim/internal/stats"
	"tlrsim/internal/workloads"
)

// spans collects the host time of the benchmark's calls into each layer's
// public functions, by span name. One worker owns one spans value; merge
// combines them when the workers are done.
type spans map[string][]time.Duration

// time starts a span and returns the function that ends it.
func (s spans) time(name string) func() {
	start := time.Now()
	return func() { s[name] = append(s[name], time.Since(start)) }
}

func (s spans) merge(o spans) {
	for k, v := range o {
		s[k] = append(s[k], v...)
	}
}

// total returns the summed duration of the named spans.
func (s spans) total(names ...string) time.Duration {
	var d time.Duration
	for _, n := range names {
		for _, v := range s[n] {
			d += v
		}
	}
	return d
}

// count returns how many of the named spans were recorded.
func (s spans) count(names ...string) int {
	n := 0
	for _, name := range names {
		n += len(s[name])
	}
	return n
}

// counts are exact work counts read from each layer's Stats accessors,
// summed over every replayed machine. The fields are exported so that add
// can sum them by reflection.
type counts struct {
	Runs, Cycles, Accesses                                uint64
	BusTxns, DataMsgs, Markers, Probes, Nacks, ArbStalls  uint64
	Handoffs, Events                                      uint64
	CacheHits, VictimHits, Evictions                      uint64
	CohMisses, Upgrades, Writebacks, Chained, NackRetries uint64
	Starts, Commits, Aborts, Fallbacks, Deferrals         uint64
}

// addMachine adds one finished machine's counters.
func (c *counts) addMachine(m *proc.Machine) {
	c.Runs++
	c.Cycles += uint64(m.Cycles())
	c.Events += m.K.Fired()
	bs := m.Sys.Bus.Stats()
	for _, n := range bs.Txns {
		c.BusTxns += n
	}
	c.DataMsgs += bs.DataMsgs
	c.Markers += bs.Markers
	c.Probes += bs.Probes
	c.Nacks += bs.Nacks
	c.ArbStalls += bs.ArbStalls
	for _, cpu := range m.CPUs {
		c.Handoffs += cpu.Stats().Ops
		cs := cpu.Ctrl().Cache().Stats()
		c.CacheHits += cs.Hits
		c.VictimHits += cs.VictimHits
		c.Evictions += cs.Evictions
		ctl := cpu.Ctrl().Stats()
		c.Accesses += ctl.Loads + ctl.Stores
		c.CohMisses += ctl.Misses
		c.Upgrades += ctl.Upgrades
		c.Writebacks += ctl.Writebacks
		c.Chained += ctl.ChainedRequests
		c.NackRetries += ctl.NackRetries
		es := cpu.Engine().Stats()
		c.Starts += es.Starts
		c.Commits += es.Commits
		c.Aborts += es.TotalAborts()
		c.Fallbacks += es.Fallbacks
		c.Deferrals += es.Deferrals
	}
}

// add sums two sets of counts field by field.
func (c *counts) add(o counts) {
	a, b := reflect.ValueOf(c).Elem(), reflect.ValueOf(o)
	for i := 0; i < a.NumField(); i++ {
		a.Field(i).SetUint(a.Field(i).Uint() + b.Field(i).Uint())
	}
}

// machinePool is one replay worker's warm machines, keyed by construction
// shape, as runner.MachineCache keeps them; it is spelled out here so that
// construction and reset are timed as separate spans.
type machinePool map[proc.ResetShape]*proc.Machine

func (p machinePool) acquire(cfg proc.Config, sp spans) *proc.Machine {
	key := cfg.ResetShape()
	if m := p[key]; m != nil {
		delete(p, key)
		end := sp.time("proc.reset")
		err := m.Reset(cfg)
		end()
		if err == nil {
			return m
		}
	}
	defer sp.time("proc.construct")()
	return proc.NewMachine(cfg)
}

func (p machinePool) release(m *proc.Machine) { p[m.Config().ResetShape()] = m }

// replayUnits groups points as the harness's runner does: a fork group is
// one unit, placed where its first point is; every other point is its own.
func replayUnits(pts []point) [][]point {
	var units [][]point
	groups := map[string]int{}
	for _, p := range pts {
		if p.fork != "" {
			if gi, ok := groups[p.fork]; ok {
				units[gi] = append(units[gi], p)
				continue
			}
			groups[p.fork] = len(units)
		}
		units = append(units, []point{p})
	}
	return units
}

// replayWorker is one replay worker's state.
type replayWorker struct {
	pool machinePool
	sp   spans
	cnt  counts
	runs map[string]*stats.Run // runKey -> replayed run
}

// runKey names a run by its call and label (labels repeat across calls).
func runKey(call, label string) string { return call + ": " + label }

// unit replays one unit of a call: a standalone point through
// workloads.RunOn's steps, or a fork group set up once, snapshotted and
// forked per point.
func (rw *replayWorker) unit(call string, pts []point) error {
	first := pts[0]
	m := rw.pool.acquire(first.cfg, rw.sp)
	w := timedWorkload{first.build(), rw.sp}
	w.Setup(m)
	var snap *proc.Snapshot
	if first.fork != "" {
		end := rw.sp.time("proc.snapshot")
		s, err := m.Snapshot()
		end()
		if err != nil {
			return fmt.Errorf("%s: snapshot: %w", first.label, err)
		}
		snap = s
	}
	for _, p := range pts {
		if snap != nil {
			end := rw.sp.time("proc.fork")
			err := snap.ForkInto(m, p.cfg)
			end()
			if err != nil {
				return fmt.Errorf("%s: fork: %w", p.label, err)
			}
		}
		end := rw.sp.time("workloads.run")
		err := workloads.RunPrograms(m, w)
		end()
		if err != nil {
			return fmt.Errorf("%s: %w", p.label, err)
		}
		if svc, ok := w.Workload.(*workloads.Service); ok && svc.Rec != nil {
			svc.Rec.Finish(uint64(m.Cycles()))
		}
		end = rw.sp.time("stats.collect")
		run := stats.Collect(m)
		end()
		rw.runs[runKey(call, p.label)] = run
		rw.cnt.addMachine(m)
	}
	rw.pool.release(m)
	return nil
}

// replayHarness replays every point of the calls on closed-loop workers and
// checks each replayed run against the run the harness reported under the
// same runKey.
func replayHarness(calls []call, reported map[string]*stats.Run, workers int) (spans, counts, error) {
	type item struct {
		call string
		pts  []point
	}
	var items []item
	for _, c := range calls {
		for _, u := range replayUnits(c.points()) {
			items = append(items, item{c.name(), u})
		}
	}
	rws := make([]*replayWorker, workers)
	for w := range rws {
		rws[w] = &replayWorker{pool: machinePool{}, sp: spans{}, runs: map[string]*stats.Run{}}
	}
	err := closedLoop(len(items), workers, func(w, i int) error {
		return rws[w].unit(items[i].call, items[i].pts)
	})
	if err != nil {
		return nil, counts{}, fmt.Errorf("replay: %w", err)
	}
	sp, cnt, replayed := spans{}, counts{}, 0
	for _, rw := range rws {
		sp.merge(rw.sp)
		cnt.add(rw.cnt)
		for key, run := range rw.runs {
			want := reported[key]
			if want == nil {
				return nil, counts{}, fmt.Errorf("replay: %s was not reported by the harness", key)
			}
			if !reflect.DeepEqual(run, want) {
				return nil, counts{}, fmt.Errorf("replay: %s: replayed run differs from the harness's", key)
			}
			replayed++
		}
	}
	if replayed != len(reported) {
		return nil, counts{}, fmt.Errorf("replay: replayed %d runs, the harness reported %d", replayed, len(reported))
	}
	return sp, cnt, nil
}
