package proc

import (
	"testing"

	"tlrsim/internal/memsys"
)

// litmusCases are thread shapes covering every state-machine path: no
// critical window, elided windows (with restarts under contention), BASE's
// real TTS acquisition, and pre/post segments around the window.
func litmusCases(a, b memsys.Addr) [][]LitmusThread {
	return [][]LitmusThread{
		{ // plain racing accesses, no critical section
			{Ops: []LitmusOp{{Addr: a, Val: 1}, {IsLoad: true, Addr: b}}},
			{Ops: []LitmusOp{{Addr: b, Val: 9}, {IsLoad: true, Addr: a}}},
		},
		{ // fully wrapped critical sections over the same lines
			{Ops: []LitmusOp{{Addr: a, Val: 1}, {IsLoad: true, Addr: b}}, CritLo: 0, CritHi: 2},
			{Ops: []LitmusOp{{Addr: b, Val: 9}, {IsLoad: true, Addr: a}}, CritLo: 0, CritHi: 2},
		},
		{ // pre and post segments around a one-op window
			{Ops: []LitmusOp{{IsLoad: true, Addr: a}, {Addr: a, Val: 3}, {IsLoad: true, Addr: a}}, CritLo: 1, CritHi: 2},
			{Ops: []LitmusOp{{Addr: a, Val: 7}, {IsLoad: true, Addr: a}}, CritLo: 0, CritHi: 2},
		},
		{ // one thread locked, one unlocked (mixed)
			{Ops: []LitmusOp{{Addr: a, Val: 5}, {Addr: b, Val: 6}}, CritLo: 0, CritHi: 2},
			{Ops: []LitmusOp{{IsLoad: true, Addr: b}, {IsLoad: true, Addr: a}}},
		},
	}
}

// runLitmusThreads is RunLitmus on coroutine threads (the path workload
// threads take), kept callable for equivalence testing.
func runLitmusThreads(m *Machine, lock *Lock, threads []LitmusThread) ([][]uint64, error) {
	loads := make([][]uint64, len(threads))
	progs := make([]func(*TC), len(threads))
	for i, th := range threads {
		nloads := 0
		for _, o := range th.Ops {
			if o.IsLoad {
				nloads++
			}
		}
		loads[i] = make([]uint64, nloads)
		progs[i] = litmusProg(th, lock, loads[i])
	}
	if err := m.Run(progs); err != nil {
		return loads, err
	}
	return loads, m.CheckerErr()
}

// TestScriptedLitmusMatchesGoroutine pins the scripted state machine to the
// thread runtime (coroutines now; the name predates them): identical
// outcomes, identical cycle counts, identical event counts, for every scheme
// and several seeds.
func TestScriptedLitmusMatchesGoroutine(t *testing.T) {
	for _, scheme := range []Scheme{Base, SLE, TLR} {
		for _, seed := range []int64{1, 2, 42} {
			cfg := BaselineConfig(2, scheme, seed)
			cfg.StartJitter = 300
			cfg.MaxEvents = 1_000_000

			mk := func() (*Machine, *Lock, memsys.Addr, memsys.Addr) {
				m := NewMachine(cfg)
				l := m.NewLock()
				return m, l, m.Alloc.PaddedWord(), m.Alloc.PaddedWord()
			}
			ncases := len(litmusCases(0, 0))
			for ci := 0; ci < ncases; ci++ {
				ms, ls, as, bs := mk()
				mg, lg, ag, bg := mk()
				if as != ag || bs != bg || ls.Addr != lg.Addr {
					t.Fatal("allocator not deterministic across machines")
				}
				scripted, errS := ms.RunLitmus(ls, litmusCases(as, bs)[ci])
				threaded, errG := runLitmusThreads(mg, lg, litmusCases(ag, bg)[ci])
				if (errS == nil) != (errG == nil) {
					t.Fatalf("%v seed %d case %d: scripted err %v, coroutine err %v",
						scheme, seed, ci, errS, errG)
				}
				outS := ms.LitmusOutcome(scripted, []memsys.Addr{as, bs})
				outG := mg.LitmusOutcome(threaded, []memsys.Addr{ag, bg})
				if outS != outG {
					t.Errorf("%v seed %d case %d: scripted outcome %q != coroutine %q",
						scheme, seed, ci, outS, outG)
				}
				if ms.Cycles() != mg.Cycles() {
					t.Errorf("%v seed %d case %d: scripted cycles %d != coroutine %d",
						scheme, seed, ci, ms.Cycles(), mg.Cycles())
				}
				if ms.K.Fired() != mg.K.Fired() {
					t.Errorf("%v seed %d case %d: scripted events %d != coroutine %d",
						scheme, seed, ci, ms.K.Fired(), mg.K.Fired())
				}
			}
		}
	}
}
