package main

import (
	"sync"
	"testing"
	"time"

	"tlrsim/internal/stats"
)

// TestRunTaskTimesJobsPerWorker pins job timing under a parallel call: a
// job's time runs from its own worker's previous report, not from the latest
// report of any worker.
func TestRunTaskTimesJobsPerWorker(t *testing.T) {
	const sleep = 20 * time.Millisecond
	tk := task{name: "two workers", jobs: 3, run: func(_ int, done func(string, *stats.Run)) (string, int, error) {
		var mu sync.Mutex // the harness serialises its callbacks
		report := func(label string) {
			mu.Lock()
			defer mu.Unlock()
			done(label, nil)
		}
		a1, b1 := make(chan struct{}), make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // worker A: a1 after 1 sleep, a2 after b1 and 1 more
			defer wg.Done()
			time.Sleep(sleep)
			report("a1")
			close(a1)
			<-b1
			time.Sleep(sleep)
			report("a2")
		}()
		go func() { // worker B: b1 after a1 and 2 sleeps
			defer wg.Done()
			<-a1
			time.Sleep(2 * sleep)
			report("b1")
			close(b1)
		}()
		wg.Wait()
		return "", 0, nil
	}}
	out := runTask(tk, 2)
	took := map[string]time.Duration{}
	for _, j := range out.jobs {
		took[j.label] = j.took
	}
	// b1 ran from the call's start; a2 from a1, across the wait for b1.
	for label, min := range map[string]time.Duration{"a1": sleep, "b1": 3 * sleep, "a2": 3 * sleep} {
		if took[label] < min {
			t.Errorf("%s took %v, want at least %v", label, took[label], min)
		}
	}
	if out.wall < took["b1"] {
		t.Errorf("call wall %v shorter than its job b1 (%v)", out.wall, took["b1"])
	}
}

// TestDigestIgnoresCompletionOrder pins sim_digest to the jobs' results: the
// order in which parallel workers finish must not change it.
func TestDigestIgnoresCompletionOrder(t *testing.T) {
	batch := func(labels ...string) *round {
		tk := task{name: "call", jobs: len(labels), run: func(_ int, done func(string, *stats.Run)) (string, int, error) {
			for _, l := range labels {
				done(l, &stats.Run{Cycles: uint64(len(l))})
			}
			return "report", 0, nil
		}}
		return runBatch([]task{tk}, 2)
	}
	a, b := batch("x", "yy", "zzz"), batch("zzz", "x", "yy")
	if a.digest != b.digest {
		t.Errorf("digest depends on completion order: %s vs %s", a.digest, b.digest)
	}
	if c := batch("x", "yy", "zz"); c.digest == a.digest {
		t.Error("digest ignores a job's cycles")
	}
}
