package proc

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"tlrsim/internal/fault"
)

// TestFailedRunStopsThreads: every failure exit (event budget, watchdog,
// deadlock) must unwind the threads it abandons. A suspended coroutine holds
// a goroutine and its stack, so a leak shows up as a goroutine count that
// never returns to where the run started.
func TestFailedRunStopsThreads(t *testing.T) {
	storm := func(c *Config) { c.Faults, _ = fault.ParseSpec("abort=100,seed=1") }
	cases := []struct {
		name string
		kind StallKind
		run  func(t *testing.T) error
	}{
		{"event-budget", StallEventBudget, func(t *testing.T) error {
			c := cfg(2, TLR)
			storm(&c)
			c.MaxEvents = 100_000
			return counterRun(t, NewMachine(c), 2, 10)
		}},
		{"watchdog", StallWatchdog, func(t *testing.T) error {
			c := cfg(2, TLR)
			storm(&c)
			c.StallCycles = 20_000
			return counterRun(t, NewMachine(c), 2, 10)
		}},
		{"deadlock", StallDeadlock, func(t *testing.T) error {
			// Both threads spin on a flag nobody sets: the event queue
			// drains with both blocked.
			m := NewMachine(cfg(2, Base))
			flag := m.Alloc.PaddedWord()
			wait := func(tc *TC) { tc.SpinUntil(flag, func(v uint64) bool { return v == 1 }) }
			return m.Run([]func(*TC){wait, wait})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			err := tc.run(t)
			var se *StallError
			if !errors.As(err, &se) || se.Kind != tc.kind {
				t.Fatalf("err = %v, want a %v StallError", err, tc.kind)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("%d goroutines after the failed run, %d before: abandoned threads leaked", n, before)
			}
		})
	}
}

// BenchmarkThreadHandoff measures one op round trip between a CPU and its
// coroutine thread: resume the thread with a result, receive its next op.
func BenchmarkThreadHandoff(b *testing.B) {
	tc := newTC(nil, func(tc *TC) {
		for {
			tc.do(op{kind: opLoad})
		}
	})
	defer tc.stop()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := tc.next(result{}); !ok {
			b.Fatal("thread finished")
		}
	}
}
