package main

import (
	"testing"

	"tlrsim/internal/stats"
)

// TestReplayMatchesHarness pins the point tables to the harness: replaying
// every point of the paper suite and of one contention matrix must give the
// runs the harness reports, label for label.
func TestReplayMatchesHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the paper suite and a contention matrix twice")
	}
	w := paperWorkload(7)
	w.lit = nil
	w.calls = append(w.calls, call{cmExperiment, 7})
	tasks := w.tasks()
	r := runBatch(tasks, 2)
	reported := map[string]*stats.Run{}
	for i, o := range r.outs {
		if o.err != nil {
			t.Fatalf("%s: %v", tasks[i].name, o.err)
		}
		if len(o.jobs) != tasks[i].jobs {
			t.Errorf("%s: %d jobs reported, the point table has %d", tasks[i].name, len(o.jobs), tasks[i].jobs)
		}
		for _, j := range o.jobs {
			reported[runKey(tasks[i].name, j.label)] = j.run
		}
	}
	sp, cnt, err := replayHarness(w.calls, reported, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Runs != r.runs || cnt.Cycles != r.cycles || cnt.Accesses != r.accesses {
		t.Errorf("replay counted %d runs, %d cycles, %d accesses; the harness %d, %d, %d",
			cnt.Runs, cnt.Cycles, cnt.Accesses, r.runs, r.cycles, r.accesses)
	}
	if n := sp.count("workloads.run"); n != len(reported) {
		t.Errorf("%d workloads.run spans for %d runs", n, len(reported))
	}
	if sp.count("proc.fork") == 0 || sp.count("proc.snapshot") == 0 {
		t.Error("no fork group was replayed through Snapshot/ForkInto")
	}
}

// TestLitmusReplayMatchesCheck pins the litmus machine mirror: the count
// pass and the litmus.Runner replay must reproduce the Check reports and
// each other's outcomes, run for run.
func TestLitmusReplayMatchesCheck(t *testing.T) {
	l := newLitmusSweeps(litmusShortShape, []int64{1, 2}, []int64{3})
	tasks := l.tasks()
	r := runBatch(tasks, 2)
	for i, o := range r.outs {
		if o.err != nil || o.failed != 0 {
			t.Fatalf("%s: err %v, %d failed programs", tasks[i].name, o.err, o.failed)
		}
		if len(o.jobs) != tasks[i].jobs {
			t.Errorf("%s: %d jobs reported, want %d", tasks[i].name, len(o.jobs), tasks[i].jobs)
		}
	}
	hashes, _, cnt, err := l.countPass(2)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(l.reported().runs); cnt.Runs != want {
		t.Errorf("count pass counted %d machines, Check ran %d", cnt.Runs, want)
	}
	if _, err := l.replay(hashes, 2); err != nil {
		t.Fatal(err)
	}
}
