package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"tlrsim/internal/stats"
)

// task is one call into a public entry point: a harness experiment, or one
// litmus.Check. A batch runs its tasks one after another, as
// `tlrsim -experiment all` runs its experiments; each call spreads its own
// jobs over the batch's workers, a closed loop in which a worker starts its
// next job only when its previous one has returned.
type task struct {
	name string
	// jobs is how many jobs (harness points, litmus sweeps) the call runs.
	jobs int
	// fork maps a job label to its fork group. The jobs of one group share
	// a snapshotted prefix and are reported together when the group ends, so
	// each is charged an equal share of the group's time.
	fork map[string]string
	// run performs the call on the given number of workers, reporting each
	// finished job to done from the goroutine that ran it, and returns the
	// rendered report and the number of failed jobs it found without
	// erroring (litmus divergences).
	run func(workers int, done func(label string, run *stats.Run)) (text string, failed int, err error)
}

// job is one finished job of a task.
type job struct {
	label string
	took  time.Duration
	run   *stats.Run // nil for litmus programs
}

// taskOut is what one task produced in one round.
type taskOut struct {
	text   string
	failed int
	err    error
	jobs   []job
	wall   time.Duration
}

// round is one execution of a workload's batch.
type round struct {
	wall      time.Duration
	outs      []taskOut
	jobMs     []float64
	attempted int
	failed    int
	runs      uint64 // machine runs
	cycles    uint64 // simulated cycles over all machines (0 when not visible)
	accesses  uint64 // simulated loads + stores (0 when not visible)
	allocB    uint64 // host bytes allocated
	allocObjs uint64 // host objects allocated
	peakLive  uint64 // highest live heap seen after a GC, bytes
	digest    string
	// busy sums the job times of the harness calls, and callWall their wall
	// times: the share of the runner's workers that were busy.
	busy, callWall time.Duration
}

// busyFrac is the share of the harness calls' worker time spent in jobs.
func (r *round) busyFrac(workers int) float64 {
	if r.callWall == 0 {
		return 0
	}
	return float64(r.busy) / (float64(workers) * float64(r.callWall))
}

// runBatch runs the tasks in order, each on the given number of workers, and
// measures the round.
func runBatch(tasks []task, workers int) *round {
	r := &round{outs: make([]taskOut, len(tasks))}
	before := readAlloc()
	peak := startPeakSampler()
	start := time.Now()
	// runTask records a call's failure in its output; the batch goes on.
	for i, t := range tasks {
		r.outs[i] = runTask(t, workers)
	}
	r.wall = time.Since(start)
	r.peakLive = peak.stop()
	after := readAlloc()
	r.allocB, r.allocObjs = after[0]-before[0], after[1]-before[1]

	h := sha256.New()
	for i, t := range tasks {
		out := &r.outs[i]
		r.attempted += t.jobs
		if out.err != nil {
			// A failed call stops at its first failure; every job it did not
			// finish is counted failed.
			r.failed += max(1, t.jobs-len(out.jobs))
		}
		r.failed += out.failed
		fmt.Fprintf(h, "%s\n%s\n", t.name, out.text)
		if len(out.jobs) > 0 && out.jobs[0].run != nil {
			r.callWall += out.wall
		}
		// Jobs finish in host order; the digest takes them in label order.
		var lines []string
		for _, j := range splitForks(out.jobs, t.fork) {
			r.jobMs = append(r.jobMs, float64(j.took)/float64(time.Millisecond))
			if j.run != nil {
				r.busy += j.took
				r.runs++
				r.cycles += j.run.Cycles
				r.accesses += j.run.Loads + j.run.Stores
				lines = append(lines, fmt.Sprintf("%s %d\n", j.label, j.run.Cycles))
			}
		}
		slices.Sort(lines)
		for _, l := range lines {
			h.Write([]byte(l))
		}
	}
	r.digest = hex.EncodeToString(h.Sum(nil))[:16]
	return r
}

// closedLoop runs items 0..n-1 on workers goroutines, each starting its next
// item only when its previous one has returned, and waits for them. fn gets
// the worker's index, so per-worker state needs no locking. After an item
// fails no further items start; the error returned is the first one seen.
func closedLoop(n, workers int, fn func(worker, item int) error) error {
	var (
		mu    sync.Mutex
		next  int
		first error
		wg    sync.WaitGroup
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
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				if err := fn(w, i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return first
}

// runTask performs one call and records the host time of each of its jobs.
// The call's workers report their jobs as they finish them, so a job's time
// is the time since the previous report from the same goroutine, or since
// the call began for a worker's first job.
func runTask(t task, workers int) taskOut {
	var out taskOut
	start := time.Now()
	// The harness serialises its progress callbacks, so last needs no lock.
	last := map[uint64]time.Time{}
	text, failed, err := t.run(workers, func(label string, run *stats.Run) {
		now, g := time.Now(), goroutineID()
		from, ok := last[g]
		if !ok {
			from = start
		}
		out.jobs = append(out.jobs, job{label: label, took: now.Sub(from), run: run})
		last[g] = now
	})
	out.wall = time.Since(start)
	out.text, out.failed, out.err = text, failed, err
	return out
}

// goroutineID returns the calling goroutine's id, read from the header of
// its stack trace ("goroutine 18 [running]:"). The callbacks of a call's
// workers carry no worker index; the goroutine stands for it.
func goroutineID() uint64 {
	var buf [64]byte
	s := strings.TrimPrefix(string(buf[:runtime.Stack(buf[:], false)]), "goroutine ")
	id, _ := strconv.ParseUint(s[:strings.IndexByte(s, ' ')], 10, 64)
	return id
}

// splitForks gives every job of a fork group an equal share of the group's
// time: the group's jobs finish together, so the first one reported carries
// the whole group and the rest nearly nothing.
func splitForks(jobs []job, fork map[string]string) []job {
	out := append([]job(nil), jobs...)
	for i := 0; i < len(out); {
		key := fork[out[i].label]
		n := 1
		for key != "" && i+n < len(out) && fork[out[i+n].label] == key {
			n++
		}
		if n > 1 {
			var sum time.Duration
			for _, j := range out[i : i+n] {
				sum += j.took
			}
			for k := i; k < i+n; k++ {
				out[k].took = sum / time.Duration(n)
			}
		}
		i += n
	}
	return out
}

var allocMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
}

// readAlloc returns the cumulative heap bytes and objects allocated.
func readAlloc() [2]uint64 {
	s := append([]metrics.Sample(nil), allocMetrics...)
	metrics.Read(s)
	return [2]uint64{s[0].Value.Uint64(), s[1].Value.Uint64()}
}

// peakSampler polls the live heap (as of the last GC) while a round runs.
type peakSampler struct {
	stopc chan struct{}
	done  chan uint64
}

// peakPoll is the live-heap polling period: short against a round's GC
// cycles, long enough that the poller costs nothing measurable.
const peakPoll = 2 * time.Millisecond

func startPeakSampler() *peakSampler {
	p := &peakSampler{stopc: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var peak uint64
		tick := time.NewTicker(peakPoll)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-p.stopc:
				p.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// stop ends the sampler and returns the peak it saw.
func (p *peakSampler) stop() uint64 {
	close(p.stopc)
	return <-p.done
}
