package runner

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tlrsim/internal/bus"
	"tlrsim/internal/cache"
	"tlrsim/internal/coherence"
	"tlrsim/internal/proc"
	"tlrsim/internal/stats"
	"tlrsim/internal/workloads"
)

func testConfig(procs int, seed int64) proc.Config {
	return proc.Config{
		Procs:  procs,
		Scheme: proc.TLR,
		Seed:   seed,
		Coherence: coherence.Config{
			Cache: cache.Config{SizeBytes: 32768, Ways: 4, VictimEntries: 16},
			Bus:   bus.Config{SnoopLat: 20, DataLat: 20, ArbCycles: 2, Occupancy: 2},
			L2Lat: 12, MemLat: 70, WriteBufferLines: 64,
		},
		RestartPenalty:  10,
		SpinRecheck:     2,
		UseRMWPredictor: true,
		RMWEntries:      128,
		ElisionEntries:  64,
		MaxEvents:       200_000_000,
		EnableChecker:   true,
	}
}

func counterJob(label string, procs, ops int) Job {
	return Job{
		Label:  label,
		Config: testConfig(procs, 7),
		Build:  func() workloads.Workload { return &workloads.SingleCounter{TotalOps: ops} },
	}
}

// Results must come back in job order with the same values at any worker
// count: the determinism contract the harness reports rely on.
func TestRunOrderAndDeterminism(t *testing.T) {
	jobs := []Job{
		counterJob("a", 2, 64),
		counterJob("b", 4, 64),
		counterJob("c", 2, 128),
		counterJob("d", 4, 128),
	}
	seq, err := (&Pool{Workers: 1}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for workers := 2; workers <= 4; workers++ {
		par, err := (&Pool{Workers: workers}).Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(par), len(seq))
		}
		for i := range seq {
			if par[i].Cycles != seq[i].Cycles || par[i].Procs != seq[i].Procs {
				t.Errorf("workers=%d job %d: cycles=%d procs=%d, want cycles=%d procs=%d",
					workers, i, par[i].Cycles, par[i].Procs, seq[i].Cycles, seq[i].Procs)
			}
		}
	}
}

// badWorkload fails validation so the pool observes an error.
type badWorkload struct{ workloads.SingleCounter }

func (w *badWorkload) Name() string { return "bad" }
func (w *badWorkload) Validate(m *proc.Machine) error {
	return &validationError{}
}

type validationError struct{}

func (*validationError) Error() string { return "forced failure" }

// The earliest-indexed failure is reported and its label prefixes the
// error, regardless of worker count. At one worker the units run in order
// and none starts after the failure, so no job after bad-1 is built.
func TestFirstErrorWins(t *testing.T) {
	mk := func(builds *atomic.Int32) []Job {
		counted := func(j Job) Job {
			build := j.Build
			j.Build = func() workloads.Workload { builds.Add(1); return build() }
			return j
		}
		bad := func(label string) Job {
			return Job{
				Label:  label,
				Config: testConfig(2, 7),
				Build:  func() workloads.Workload { return &badWorkload{workloads.SingleCounter{TotalOps: 32}} },
			}
		}
		return []Job{
			counted(counterJob("ok-0", 2, 32)),
			counted(bad("bad-1")),
			counted(bad("bad-2")),
			counted(counterJob("ok-3", 2, 32)),
		}
	}
	for _, workers := range []int{1, 2, 4} {
		var builds atomic.Int32
		_, err := (&Pool{Workers: workers}).Run(mk(&builds))
		if err == nil {
			t.Fatalf("workers=%d: expected an error", workers)
		}
		if !strings.Contains(err.Error(), "bad-1") {
			t.Errorf("workers=%d: error %q should name the earliest failed job bad-1", workers, err)
		}
		if workers == 1 && builds.Load() != 2 {
			t.Errorf("workers=1: %d jobs built, want 2 (ok-0 and bad-1 only)", builds.Load())
		}
	}
}

// Progress fires exactly once per successful job, with a monotonically
// increasing done count reaching the total.
func TestProgress(t *testing.T) {
	jobs := []Job{
		counterJob("a", 2, 32),
		counterJob("b", 2, 64),
		counterJob("c", 4, 32),
	}
	for _, workers := range []int{1, 3} {
		var mu sync.Mutex
		var dones []int
		labels := map[string]bool{}
		pool := &Pool{Workers: workers, Progress: func(done, total int, label string, run *stats.Run) {
			mu.Lock()
			defer mu.Unlock()
			if total != len(jobs) {
				t.Errorf("total = %d, want %d", total, len(jobs))
			}
			if run == nil || run.Cycles == 0 {
				t.Errorf("progress for %s carries no run", label)
			}
			dones = append(dones, done)
			labels[label] = true
		}}
		if _, err := pool.Run(jobs); err != nil {
			t.Fatal(err)
		}
		if len(dones) != len(jobs) || len(labels) != len(jobs) {
			t.Fatalf("workers=%d: %d progress calls over %d labels, want %d", workers, len(dones), len(labels), len(jobs))
		}
		for i, d := range dones {
			if d != i+1 {
				t.Errorf("workers=%d: done sequence %v not monotonic", workers, dones)
				break
			}
		}
	}
}

// Zero workers means GOMAXPROCS; zero jobs means an empty result.
func TestEdgeCases(t *testing.T) {
	res, err := (&Pool{}).Run(nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty run: res=%v err=%v", res, err)
	}
	res, err = (&Pool{Workers: 16}).Run([]Job{counterJob("solo", 2, 32)})
	if err != nil || len(res) != 1 || res[0] == nil {
		t.Fatalf("more workers than jobs: res=%v err=%v", res, err)
	}
}

// Loop reports the lowest-indexed failure even when a higher-indexed item
// fails first: item 2 can only be claimed once item 1 has been, so item 1 is
// running when item 2 fails, and fails after it.
func TestLoopLowestIndexedErrorWins(t *testing.T) {
	failed2 := make(chan struct{})
	var states atomic.Int32
	err := Loop(3, 3, func() int { return int(states.Add(1)) }, func(_ int, i int) error {
		switch i {
		case 1:
			<-failed2
			return errors.New("item 1")
		case 2:
			close(failed2)
			return errors.New("item 2")
		}
		return nil
	})
	if err == nil || err.Error() != "item 1" {
		t.Fatalf("err = %v, want item 1", err)
	}
	if n := states.Load(); n > 3 {
		t.Fatalf("%d worker states for 3 workers", n)
	}
}
