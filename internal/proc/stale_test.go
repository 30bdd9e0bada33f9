package proc

import (
	"testing"

	"tlrsim/internal/core"
	"tlrsim/internal/sim"
)

// delivery is one result a CPU handed its thread, with the cycle it did.
type delivery struct {
	at sim.Time
	r  result
}

// opScript is an opSource that issues a fixed op list and records every
// result delivered to it.
type opScript struct {
	k   *sim.Kernel
	ops []op
	got []delivery
}

func (s *opScript) next(prev result) (op, bool) {
	s.got = append(s.got, delivery{s.k.Now(), prev})
	if len(s.ops) == 0 {
		return op{}, false
	}
	o := s.ops[0]
	s.ops = s.ops[1:]
	return o, true
}

func isOne(v uint64) bool { return v == 1 }

// A squashed op's continuation stays bound to its token: when an abort
// squashes an op whose fill, or whose spin re-check, is still pending, the
// late fill or line notification must not complete the op the thread
// issues next. CPU 0 elides a lock, issues the op under test on a cold line
// and is squashed at abortAt; the retried transaction then runs a long
// Compute, which must complete exactly computeSpan cycles after it started
// although the stale fill (and, for the spin, CPU 1's store to the line)
// lands in between. A speculative SC is a buffered store that completes at
// once, so in its case the abort squashes a short Compute behind it and the
// late fill is the background ownership request the SC started.
func TestStaleCompletionsDropped(t *testing.T) {
	const (
		computeSpan = 5000
		storeAt     = 600 // CPU 1 writes the line (the spin's wake-up)
	)
	cases := []struct {
		name    string
		o       op
		abortAt sim.Time
		sync    bool // o completes at once; the abort squashes a Compute behind it
	}{
		{"load", op{kind: opLoad}, 30, false},
		{"ll", op{kind: opLL}, 30, false},
		{"sc", op{kind: opSC, val: 1}, 30, true},
		{"swap", op{kind: opSwap, val: 1}, 30, false},
		{"cas", op{kind: opCAS, old: 0, val: 1}, 30, false},
		{"fetchadd", op{kind: opFetchAdd, val: 1}, 30, false},
		// The spin's first read fills by cycle ~150 and subscribes; the
		// abort lands while the spin waits for the line to change.
		{"spin", op{kind: opSpin, pred: isOne}, 300, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMachine(cfg(2, TLR))
			l := m.NewLock()
			x := m.Alloc.PaddedWord()
			o := tc.o
			o.addr = x
			begin := op{kind: opTxBegin, lock: l}
			ops := []op{begin, o}
			if tc.sync {
				ops = append(ops, op{kind: opCompute, n: 100})
			}
			squashed := len(ops) // index of the squashed op's result
			ops = append(ops, begin, op{kind: opCompute, n: computeSpan}, op{kind: opTxEnd, lock: l})
			cpu0 := &opScript{k: m.K, ops: ops}
			cpu1 := &opScript{k: m.K, ops: []op{
				{kind: opCompute, n: storeAt}, {kind: opStore, addr: x, val: 1},
			}}
			m.K.At(tc.abortAt, func() { m.CPUs[0].ctrl.AbortTxn(core.ReasonExplicit) })
			if err := m.runSources([]opSource{cpu0, cpu1}); err != nil {
				t.Fatal(err)
			}
			got := cpu0.got
			if len(got) != squashed+4 {
				t.Fatalf("CPU 0 got %d results, want %d: %+v", len(got), squashed+4, got)
			}
			if r := got[squashed].r; !r.aborted {
				t.Fatalf("op under test was not squashed: %+v", r)
			}
			// Next come the retried TxBegin's result (delivered when the
			// Compute is fetched), the Compute's completion and TxEnd's.
			retry, compute, end := got[squashed+1], got[squashed+2], got[squashed+3]
			if retry.r.aborted || retry.r.mode != CritElided {
				t.Fatalf("retried TxBegin: %+v, want elided", retry.r)
			}
			if start := retry.at + 1; compute.at-start != computeSpan {
				t.Fatalf("Compute ran %d..%d (%d cycles), want %d: a stale completion ended it",
					start, compute.at, compute.at-start, computeSpan)
			}
			if end.r.aborted || !end.r.ok {
				t.Fatalf("TxEnd: %+v, want committed", end.r)
			}
			if v := m.Sys.ArchWord(x); v != 1 {
				t.Fatalf("x = %d after CPU 1's store, want 1", v)
			}
		})
	}
}
