// Command perfbench is tlrsim's benchmark. It runs one named workload through
// tlrsim's public entry points, each call spreading its jobs over at most two
// host workers, checks every output, and prints end-to-end metrics (or, with
// --trace 1, the per-layer metrics of a separate traced run) with the JSON
// result as its last line.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 45 --trace 0
//	bash perfbench/run.sh --check
//
// Workloads: paper (the `tlrsim -experiment all` suite and the short litmus
// containment sweep) and contention (the policy-vs-workload matrix).
// perfbench/README.md says why each was chosen, lists the metrics and which
// layer each should move.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"time"

	"tlrsim/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// maxWorkers bounds the host workers; fewer are used on a smaller host.
const maxWorkers = 2

// setupReps is how many times a run repeats the workload's set-up; setup_s is
// the median.
const setupReps = 5

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name  = fs.String("workload", "", "workload: paper or contention")
		seed  = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		secs  = fs.Int("seconds", 45, "host seconds to measure for")
		trace = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		check = fs.Bool("check", false, "compare the committed goldens' configurations byte for byte, then exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	workers := min(maxWorkers, runtime.NumCPU())
	if *check {
		if err := checkGoldens(workers); err != nil {
			fmt.Fprintln(stderr, "perfbench: check:", err)
			return 1
		}
		fmt.Fprintln(stdout, "goldens: paper seeds 1, 2, 42 and contention seed 2002 match testdata byte for byte")
		return 0
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	var w *workload
	switch *name {
	case "paper":
		w = paperWorkload(*seed)
	case "contention":
		w = contentionWorkload(*seed)
	default:
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q (want paper or contention)\n", *name)
		return 2
	}
	// Read the GC percent (setting -1 and back is the only way to read it).
	gcPercent := debug.SetGCPercent(-1)
	debug.SetGCPercent(gcPercent)
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%d trace=%d\n", *name, *seed, *secs, *trace)
	fmt.Fprintf(stdout, "host: go=%s nproc=%d gomaxprocs=%d workers=%d gc_percent=%d\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), workers, gcPercent)
	fmt.Fprintln(stdout, "host: figures compare only with runs on this host; the committed BENCH_*.json snapshots were taken elsewhere")

	res, err := measure(w, workers, time.Duration(*secs)*time.Second, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints metrics in order and collects them for the JSON line.
type report struct {
	w       io.Writer
	metrics map[string]metric
}

func (r *report) add(name, unit string, v float64, note string) {
	r.metrics[name] = metric{v, unit}
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Fprintf(r.w, "%-28s %14.6g %s%s\n", name, v, unit, note)
}

// measure runs the workload and returns its result: end-to-end metrics, or
// with traced set, per-layer metrics.
func measure(w *workload, workers int, budget time.Duration, traced bool, out io.Writer) (*result, error) {
	setupS := medianTime(setupReps, w.setup)
	tasks := w.tasks()
	var problems []string
	fail := func(format string, a ...any) { problems = append(problems, fmt.Sprintf(format, a...)) }

	var rounds, tracedRounds []*round
	var prof shares
	if !traced {
		rounds = measureRounds(tasks, workers, budget)
	} else {
		rounds = measureRounds(tasks, workers, budget/2)
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		tracedRounds = measureRounds(tasks, workers, budget/2)
		pprof.StopCPUProfile()
		var err error
		if prof, err = bucketProfile(buf.Bytes()); err != nil {
			return nil, err
		}
	}

	// Correctness: every call succeeded, every round (traced or not) has the
	// same digest, and the output matches a committed golden where one
	// applies.
	all := append(append([]*round(nil), rounds...), tracedRounds...)
	res := &result{Metrics: map[string]metric{}}
	for _, r := range all {
		res.Attempted += r.attempted
		res.Failed += r.failed
		for i, o := range r.outs {
			if o.err != nil {
				fail("%s: %v", tasks[i].name, o.err)
			}
		}
		if r.digest != all[0].digest {
			fail("sim_digest differs between rounds: %s vs %s", r.digest, all[0].digest)
		}
	}
	texts := map[string]string{}
	for i, o := range rounds[0].outs {
		texts[tasks[i].name] = o.text
	}
	fmt.Fprintf(out, "sim_digest: %s (%d untraced rounds, %d traced)\n", all[0].digest, len(rounds), len(tracedRounds))
	if w.golden != nil {
		switch name, err := w.golden(texts); {
		case err != nil:
			fail("%v", err)
		case name != "":
			fmt.Fprintf(out, "golden: report matches testdata/%s\n", name)
		}
	}

	// The litmus sweeps hide their machines: the count pass supplies their
	// share of a round's machine runs, simulated cycles and accesses.
	var lit litmusCount
	if w.lit != nil && len(problems) == 0 {
		var err error
		if lit.hashes, lit.sp, lit.cnt, err = w.lit.countPass(workers); err != nil {
			fail("%v", err)
		}
		for _, r := range all {
			r.runs += lit.cnt.Runs
			r.cycles += lit.cnt.Cycles
			r.accesses += lit.cnt.Accesses
		}
	}
	fmt.Fprintf(out, "simulated per round: %d machine runs, %d cycles, %d loads+stores\n", all[0].runs, all[0].cycles, all[0].accesses)
	fmt.Fprintf(out, "error_rate: %g (%d failed of %d jobs)\n", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)

	rep := &report{w: out, metrics: res.Metrics}
	if !traced {
		endToEnd(rep, rounds, setupS)
	} else if len(problems) == 0 {
		if err := perLayer(rep, w, workers, rounds, tracedRounds, prof, lit); err != nil {
			fail("%v", err)
		}
	}
	for _, p := range problems {
		fmt.Fprintln(out, "FAIL:", p)
	}
	res.Correct = len(problems) == 0 && res.Failed == 0
	return res, nil
}

// measureRounds runs the batch until the budget would be exceeded by another
// round of average length, and at least once. Each round starts on a
// freshly collected heap.
func measureRounds(tasks []task, workers int, budget time.Duration) []*round {
	var rs []*round
	start := time.Now()
	for {
		runtime.GC()
		rs = append(rs, runBatch(tasks, workers))
		el := time.Since(start)
		if el+el/time.Duration(len(rs)) > budget {
			return rs
		}
	}
}

// medianTime runs f n times and returns the median host seconds.
func medianTime(n int, f func()) float64 {
	ts := make([]float64, n)
	for i := range ts {
		runtime.GC()
		start := time.Now()
		f()
		ts[i] = time.Since(start).Seconds()
	}
	return median(ts)
}

// perRound returns f of every round.
func perRound(rs []*round, f func(r *round) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

// endToEnd reports the end-to-end metrics: each is the median over rounds of
// the round's figure.
func endToEnd(rep *report, rs []*round, setupS float64) {
	wall := func(r *round) float64 { return r.wall.Seconds() }
	rep.add("setup_s", "s", setupS, fmt.Sprintf("median of %d set-ups", setupReps))
	walls := perRound(rs, wall)
	rep.add("wall_s", "s", median(walls), fmt.Sprintf("median of %d rounds, %.4g–%.4g", len(rs), slices.Min(walls), slices.Max(walls)))
	rep.add("sim_mcycles_per_s", "Mcycle/s", median(perRound(rs, func(r *round) float64 {
		return float64(r.cycles) / 1e6 / wall(r)
	})), "")
	rep.add("sim_maccesses_per_s", "Maccess/s", median(perRound(rs, func(r *round) float64 {
		return float64(r.accesses) / 1e6 / wall(r)
	})), "")
	rep.add("runs_per_s", "1/s", median(perRound(rs, func(r *round) float64 {
		return float64(r.runs) / wall(r)
	})), "")
	rep.add("job_ms_p50", "ms", median(perRound(rs, func(r *round) float64 { return median(r.jobMs) })), "")
	_, pct := tail(rs[0].jobMs)
	rep.add("job_ms_tail", "ms", median(perRound(rs, func(r *round) float64 {
		v, _ := tail(r.jobMs)
		return v
	})), fmt.Sprintf("p%.4g of %d jobs", pct, len(rs[0].jobMs)))
	rep.add("alloc_mb", "MB", median(perRound(rs, func(r *round) float64 { return float64(r.allocB) / 1e6 })), "")
	rep.add("peak_heap_mb", "MB", median(perRound(rs, func(r *round) float64 { return float64(r.peakLive) / 1e6 })), "")
}

// litmusCount is the litmus count pass's output.
type litmusCount struct {
	hashes outcomeHashes
	sp     spans
	cnt    counts
}

// perLayer reports the per-layer metrics of a traced run: exact counts and
// span times from the replays, self-time shares from the CPU profile of the
// traced rounds, and runner/runtime figures from the untraced rounds.
func perLayer(rep *report, w *workload, workers int, untraced, traced []*round, prof shares, lit litmusCount) error {
	sp, cnt := spans{}, counts{}
	if len(w.calls) > 0 {
		reported := map[string]*stats.Run{}
		tasks := w.tasks()
		for i, o := range traced[len(traced)-1].outs {
			for _, j := range o.jobs {
				if j.run != nil {
					reported[runKey(tasks[i].name, j.label)] = j.run
				}
			}
		}
		hsp, hcnt, err := replayHarness(w.calls, reported, workers)
		if err != nil {
			return err
		}
		sp.merge(hsp)
		cnt.add(hcnt)
	}
	if w.lit != nil {
		lsp, err := w.lit.replay(lit.hashes, workers)
		if err != nil {
			return err
		}
		sp.merge(lsp)
		sp.merge(lit.sp)
		cnt.add(lit.cnt)
	}
	f := func(n uint64) float64 { return float64(n) }
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	ms := func(names ...string) float64 { return float64(sp.total(names...)) / 1e6 }
	share := func(bucket string) float64 { return prof.frac(bucket) }

	rep.add("bus.txns", "count", f(cnt.BusTxns), "")
	rep.add("bus.data_msgs", "count", f(cnt.DataMsgs), "")
	rep.add("bus.markers", "count", f(cnt.Markers), "")
	rep.add("bus.probes", "count", f(cnt.Probes), "")
	rep.add("bus.nacks", "count", f(cnt.Nacks), "")
	rep.add("bus.arb_stall_cycles", "cycles", f(cnt.ArbStalls), "")
	rep.add("bus.self_frac", "frac", share("bus"), "")

	machineSetup := append(append(append([]time.Duration(nil), sp["proc.construct"]...), sp["proc.reset"]...), sp["proc.fork"]...)
	setupUs := make([]float64, len(machineSetup))
	for i, d := range machineSetup {
		setupUs[i] = float64(d) / 1e3
	}
	rep.add("proc.handoffs", "count", f(cnt.Handoffs), "")
	rep.add("proc.self_frac", "frac", share("proc"), "")
	rep.add("proc.setup_us_p50", "us", median(setupUs), "")
	rep.add("proc.constructs", "count", float64(sp.count("proc.construct")), "")
	rep.add("proc.resets", "count", float64(sp.count("proc.reset")), "")
	rep.add("proc.forks", "count", float64(sp.count("proc.fork")), "")

	// Host time simulating: the machine runs minus the oracle checks.
	simNs := float64(sp.total("workloads.run", "litmus.machine") - sp.total("workloads.validate"))
	rep.add("sim.events", "count", f(cnt.Events), "")
	rep.add("sim.events_per_kcycle", "1/kcycle", 1000*ratio(cnt.Events, cnt.Cycles), "")
	rep.add("sim.ns_per_event", "ns", simNs/f(max(cnt.Events, 1)), "")
	rep.add("sim.self_frac", "frac", share("sim"), "")

	// The cache array counts its hits but not its misses (Cache.Miss has no
	// caller); its misses are the ones the controller sends to the bus.
	rep.add("cache.hits", "count", f(cnt.CacheHits), "")
	rep.add("cache.hit_ratio", "frac", ratio(cnt.CacheHits, cnt.CacheHits+cnt.CohMisses), "")
	rep.add("cache.evictions", "count", f(cnt.Evictions), "")
	rep.add("cache.victim_hits", "count", f(cnt.VictimHits), "")
	rep.add("cache.self_frac", "frac", share("cache"), "")

	rep.add("coherence.misses", "count", f(cnt.CohMisses), "")
	rep.add("coherence.upgrades", "count", f(cnt.Upgrades), "")
	rep.add("coherence.writebacks", "count", f(cnt.Writebacks), "")
	rep.add("coherence.chained", "count", f(cnt.Chained), "")
	rep.add("coherence.nack_retries", "count", f(cnt.NackRetries), "")
	rep.add("coherence.self_frac", "frac", share("coherence"), "")

	rep.add("core.starts", "count", f(cnt.Starts), "")
	rep.add("core.commits", "count", f(cnt.Commits), "")
	rep.add("core.commit_ratio", "frac", ratio(cnt.Commits, cnt.Starts), "")
	rep.add("core.aborts", "count", f(cnt.Aborts), "")
	rep.add("core.fallbacks", "count", f(cnt.Fallbacks), "")
	rep.add("core.deferrals", "count", f(cnt.Deferrals), "")
	rep.add("core.self_frac", "frac", share("core"), "")

	var lt litmusTotals
	if w.lit != nil {
		lt = w.lit.reported()
	}
	rep.add("litmus.enumerate_s", "s", ms("litmus.enumerate")/1e3, "")
	rep.add("litmus.reference_s", "s", ms("litmus.reference")/1e3, "")
	rep.add("litmus.machine_s", "s", ms("litmus.machine")/1e3, "")
	rep.add("litmus.check_s", "s", ms("litmus.check")/1e3, "")
	rep.add("litmus.ref_outcomes", "count", float64(lt.refOutcomes), "")
	rep.add("litmus.observed_outcomes", "count", float64(lt.observed), "")
	rep.add("litmus.self_frac", "frac", share("litmus"), "")

	rep.add("workloads.setup_ms", "ms", ms("workloads.setup"), "")
	rep.add("workloads.validate_ms", "ms", ms("workloads.validate"), "")
	rep.add("workloads.self_frac", "frac", share("workloads"), "")
	rep.add("stats.collect_ms", "ms", ms("stats.collect"), "")
	rep.add("checker.self_frac", "frac", share("checker"), "")

	rep.add("runner.busy_frac", "frac", median(perRound(untraced, func(r *round) float64 {
		return r.busyFrac(workers)
	})), "harness calls")
	rep.add("runtime.gc_frac", "frac", share(bucketGC), "")
	rep.add("runtime.allocs_per_run", "count", median(perRound(untraced, func(r *round) float64 {
		return ratio(r.allocObjs, r.runs)
	})), "")

	named := 0.0
	for _, bkt := range []string{"bus", "proc", "sim", "cache", "coherence", "core", "litmus", "workloads", "checker", bucketGC} {
		named += share(bkt)
	}
	rep.add("profile.rest_frac", "frac", 1-named, "every other bucket")
	rep.add("profile.samples", "count", float64(prof.total), "")
	fmt.Fprintf(rep.w, "profile buckets (%d samples):", prof.total)
	for _, bkt := range prof.sorted() {
		fmt.Fprintf(rep.w, " %s=%.4f", bkt, prof.frac(bkt))
	}
	fmt.Fprintln(rep.w)

	wall := func(r *round) float64 { return r.wall.Seconds() }
	rep.add("bench.trace_overhead", "frac", median(perRound(traced, wall))/median(perRound(untraced, wall))-1, "")
	return nil
}
