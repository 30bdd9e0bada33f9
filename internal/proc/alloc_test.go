package proc

import (
	"testing"

	"tlrsim/internal/memsys"
)

// allocWords are the shared words allocRound's threads work on.
type allocWords struct {
	data, ctr, sw, cas, ll memsys.Addr
}

// barrier is a SpinUntil predicate bound once per thread: target moves each
// round, so the spin needs no per-op closure.
type barrier struct{ target uint64 }

func (b *barrier) reached(v uint64) bool { return v >= b.target }

// allocRound resets m and runs every CPU through n rounds that issue every
// op kind a CPU handles: a critical section (TxBegin/TxEnd under elision,
// the lock's own Load/Spin/LL/SC/Swap/CAS otherwise) around a Load, a Store
// and a FetchAdd (speculative under elision), then Swap, CAS, an LL/SC
// retry loop, a Compute span, a FetchAdd, and a SpinUntil barrier that
// waits for the other CPUs' FetchAdds.
func allocRound(m *Machine, cfg Config, n int) error {
	if err := m.Reset(cfg); err != nil {
		return err
	}
	l := m.NewLock()
	w := allocWords{
		data: m.Alloc.PaddedWord(), ctr: m.Alloc.PaddedWord(), sw: m.Alloc.PaddedWord(),
		cas: m.Alloc.PaddedWord(), ll: m.Alloc.PaddedWord(),
	}
	procs := uint64(cfg.Procs)
	progs := make([]func(*TC), cfg.Procs)
	for i := range progs {
		progs[i] = func(tc *TC) {
			b := &barrier{}
			reached := b.reached
			for j := uint64(1); j <= uint64(n); j++ {
				tc.Critical(l, func() {
					tc.Store(w.data, tc.Load(w.data)+1)
					tc.FetchAdd(w.sw, 1)
				})
				tc.Swap(w.sw, j)
				old := tc.Load(w.cas)
				tc.CAS(w.cas, old, old+1)
				for !tc.SC(w.ll, tc.LL(w.ll)+1) {
				}
				tc.Compute(3)
				tc.FetchAdd(w.ctr, 1)
				b.target = j * procs
				tc.SpinUntil(w.ctr, reached)
			}
		}
	}
	return m.Run(progs)
}

// On a warm machine (Machine.Reset between runs) the memory-system path is
// allocation-free per operation: a run's allocations — its threads, locks
// and programs — do not grow with its op count. Covers every scheme family
// with the TSO store buffer (small, so stores also stall for space) and the
// functional checker on.
func TestWarmRunAllocsIndependentOfOps(t *testing.T) {
	const n = 40
	for _, scheme := range []Scheme{Base, SLE, TLR, MCS} {
		t.Run(scheme.String(), func(t *testing.T) {
			c := cfg(4, scheme)
			c.Coherence.StoreBufferEntries = 2
			m := NewMachine(c)
			for _, ops := range []int{n, 4 * n} { // warm every pool and table
				if err := allocRound(m, c, ops); err != nil {
					t.Fatal(err)
				}
			}
			allocs := func(ops int) float64 {
				return testing.AllocsPerRun(3, func() {
					if err := allocRound(m, c, ops); err != nil {
						t.Fatal(err)
					}
				})
			}
			if a, b := allocs(n), allocs(4*n); a != b {
				t.Errorf("allocations per run: %.0f at %d rounds, %.0f at %d rounds; want equal", a, n, b, 4*n)
			}
		})
	}
}
