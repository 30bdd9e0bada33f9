package proc

import (
	"math/rand"

	"tlrsim/internal/locks"
	"tlrsim/internal/memsys"
)

// opKind enumerates the operations a thread can issue to its CPU.
type opKind int

const (
	opLoad opKind = iota
	opStore
	opLL
	opSC
	opSwap
	opCAS
	opFetchAdd
	opSpin
	opCompute
	opTxBegin
	opTxEnd
	opCSEnter
	opCSExit
	opUnelidable
)

// op is one thread->CPU request.
type op struct {
	kind opKind
	addr memsys.Addr
	val  uint64
	old  uint64
	n    uint64
	site int
	// frames is the thread's elided-frame depth when a TxBegin is issued:
	// zero identifies the restart point that may acknowledge an abort.
	frames int
	// lead is a folded pure-compute span (cycles) the thread ran before this
	// operation: Compute spans don't cross to the CPU themselves, they ride
	// on the next real operation and the CPU replays them as the compute op
	// they stand for.
	lead uint64
	pred func(uint64) bool
	lock *Lock
}

// CritMode tells the thread runtime how the CPU decided to execute a
// critical section.
type CritMode int

const (
	// CritElided: the lock was elided; the body runs as an optimistic
	// lock-free transaction.
	CritElided CritMode = iota
	// CritAcquireTTS: acquire the test&test&set lock with real operations.
	CritAcquireTTS
	// CritAcquireMCS: acquire the MCS queue lock with real operations.
	CritAcquireMCS
)

// result is one CPU->thread reply.
type result struct {
	val     uint64
	ok      bool
	aborted bool
	mode    CritMode
}

// abortSignal unwinds the thread to the restart point of the outermost
// elided critical section — the software analogue of the hardware register
// checkpoint recovery.
type abortSignal struct{}

// threadStop unwinds a suspended thread whose run was abandoned (a failed
// run stops its threads, see Machine.fail); the coroutine body recovers it.
type threadStop struct{}

// TC is the thread context: the only handle workload code uses to touch the
// simulated machine. A TC is a coroutine (coro.go): the thread body runs
// only inside its CPU's call to next, so thread code and the kernel loop
// never run at the same time. All methods must be called from thread code.
type TC struct {
	cpu        *CPU
	specFrames int
	rng        *rand.Rand

	// pendingCompute accumulates the latest Compute span until the next
	// operation carries it to the CPU (as op.lead), saving the round trip a
	// dedicated compute op would cost.
	pendingCompute uint64

	// Coroutine plumbing: pull resumes the thread until it yields its next
	// op (ok=false once the body returns), stop unwinds a suspended thread,
	// yield is the thread side of pull, res holds the reply to the op the
	// thread last yielded, and stopping marks the unwind stop started.
	pull     func() (op, bool)
	stop     func()
	yield    func(op) bool
	res      result
	stopping bool
}

var (
	_ locks.Ops = (*TC)(nil)
	_ opSource  = (*TC)(nil)
)

// next resumes the thread with the reply to its previous op and returns the
// op it yields next (the opSource a CPU drives).
func (tc *TC) next(prev result) (op, bool) {
	tc.res = prev
	return tc.pull()
}

// do issues one operation and suspends the thread until the CPU completes
// it. Any pending compute span rides along as the operation's lead.
func (tc *TC) do(o op) result {
	o.lead = tc.pendingCompute
	tc.pendingCompute = 0
	if !tc.yield(o) {
		tc.stopping = true
		panic(threadStop{})
	}
	return tc.res
}

// mem issues a memory operation, unwinding to the transaction restart point
// if the operation was squashed by a misspeculation.
func (tc *TC) mem(o op) uint64 {
	r := tc.do(o)
	if r.aborted {
		panic(abortSignal{})
	}
	return r.val
}

// CPUID returns the processor this thread runs on.
func (tc *TC) CPUID() int { return tc.cpu.id }

// Rand returns this thread's deterministic random stream (for workload
// randomisation such as the paper's post-release delays, §5.1). The stream
// is seeded on first use: seeding a math/rand source costs microseconds,
// which dominates machine construction for workloads — litmus programs in
// particular — that never draw from it. The CPU keeps one source across
// runs and re-seeds it, which yields the same stream as a fresh source
// without allocating one per thread.
func (tc *TC) Rand() *rand.Rand {
	if tc.rng == nil {
		cpu := tc.cpu
		seed := cpu.m.cfg.Seed*1000003 + int64(cpu.id)
		if cpu.rng == nil {
			cpu.rng = rand.New(rand.NewSource(seed))
		} else {
			cpu.rng.Seed(seed)
		}
		tc.rng = cpu.rng
	}
	return tc.rng
}

// Load reads the word at a.
func (tc *TC) Load(a memsys.Addr) uint64 { return tc.mem(op{kind: opLoad, addr: a}) }

// LoadSite reads the word at a, identifying the static load site for the
// read-modify-write predictor (the role the load PC plays in §3.1.2).
func (tc *TC) LoadSite(a memsys.Addr, site int) uint64 {
	return tc.mem(op{kind: opLoad, addr: a, site: site})
}

// Store writes v to the word at a.
func (tc *TC) Store(a memsys.Addr, v uint64) { tc.mem(op{kind: opStore, addr: a, val: v}) }

// LL performs a load-linked.
func (tc *TC) LL(a memsys.Addr) uint64 { return tc.mem(op{kind: opLL, addr: a}) }

// SC performs a store-conditional, reporting success.
func (tc *TC) SC(a memsys.Addr, v uint64) bool {
	return tc.mem(op{kind: opSC, addr: a, val: v}) == 1
}

// Swap atomically exchanges v with the word at a and returns the old value.
func (tc *TC) Swap(a memsys.Addr, v uint64) uint64 {
	return tc.mem(op{kind: opSwap, addr: a, val: v})
}

// CAS atomically replaces old with new at a if it matches; it returns the
// observed value.
func (tc *TC) CAS(a memsys.Addr, old, new uint64) uint64 {
	return tc.mem(op{kind: opCAS, addr: a, old: old, val: new})
}

// FetchAdd atomically adds delta to the word at a and returns the old value.
func (tc *TC) FetchAdd(a memsys.Addr, delta uint64) uint64 {
	return tc.mem(op{kind: opFetchAdd, addr: a, val: delta})
}

// SpinUntil blocks until pred holds for the word at a, re-checking only
// when the cached copy is invalidated (test&test&set-style local spinning).
// It returns the satisfying value.
func (tc *TC) SpinUntil(a memsys.Addr, pred func(uint64) bool) uint64 {
	return tc.mem(op{kind: opSpin, addr: a, pred: pred})
}

// Now returns the thread's current simulated cycle: the kernel clock (the
// completion time of the op the thread is resuming from, since the thread
// only runs inside that completion) plus any pending batched compute span.
func (tc *TC) Now() uint64 {
	return uint64(tc.cpu.m.K.Now()) + tc.pendingCompute
}

// WaitUntil advances the thread's local time to at least cycle `at`,
// modelling idle waiting (an open-loop workload waiting for the next
// arrival). A no-op when `at` is not in the future; otherwise the wait rides
// the next operation as an ordinary compute span.
func (tc *TC) WaitUntil(at uint64) {
	if now := tc.Now(); at > now {
		tc.Compute(at - now)
	}
}

// Compute models n cycles of local computation. The span is batched: it is
// carried to the CPU by the next real operation instead of being handed over
// on its own. Back-to-back spans flush the previous one as an explicit
// compute op, preserving the unbatched machine's exact timing.
func (tc *TC) Compute(n uint64) {
	if n == 0 {
		return
	}
	if tc.pendingCompute > 0 {
		tc.flushCompute()
	}
	tc.pendingCompute = n
}

// flushCompute issues any pending compute span as an explicit op (program
// end, or a second span queued behind an unsent first).
func (tc *TC) flushCompute() {
	n := tc.pendingCompute
	tc.pendingCompute = 0
	if n == 0 {
		return
	}
	r := tc.do(op{kind: opCompute, n: n})
	if r.aborted {
		panic(abortSignal{})
	}
}

// Unelidable marks an operation that cannot be undone (I/O, §2.2 step 3):
// if a transaction is in flight it must fall back to real locking before
// the point is reached. The retried body runs non-speculatively up to here.
func (tc *TC) Unelidable() {
	tc.mem(op{kind: opUnelidable})
}

// Critical executes body as a critical section protected by l, using the
// machine's configured scheme. The body must access shared state only
// through tc: under elision it may execute several times (transaction
// restarts), so any external side effects would be replayed.
func (tc *TC) Critical(l *Lock, body func()) {
	for {
		r := tc.do(op{kind: opTxBegin, lock: l, frames: tc.specFrames})
		if r.aborted {
			if tc.specFrames > 0 {
				// The enclosing transaction itself was squashed.
				panic(abortSignal{})
			}
			continue // this elision attempt died before it began; retry
		}
		switch r.mode {
		case CritElided:
			if tc.runElided(l, body) {
				return
			}
			// Misspeculation caught at this (outermost) frame: retry. The
			// CPU decides on each retry whether to elide again or acquire.
		case CritAcquireTTS:
			locks.AcquireTTS(tc, l.Addr)
			tc.mem(op{kind: opCSEnter, lock: l})
			body()
			tc.mem(op{kind: opCSExit, lock: l})
			locks.ReleaseTTS(tc, l.Addr)
			return
		case CritAcquireMCS:
			l.mcs.Acquire(tc)
			tc.mem(op{kind: opCSEnter, lock: l})
			body()
			tc.mem(op{kind: opCSExit, lock: l})
			l.mcs.Release(tc)
			return
		}
	}
}

// runElided executes body speculatively. It returns true if the transaction
// committed, false if it aborted and this frame is the restart point.
// Aborts inside nested elisions unwind to the outermost elided frame, which
// is where the hardware checkpoint was taken.
func (tc *TC) runElided(l *Lock, body func()) (committed bool) {
	tc.specFrames++
	level := tc.specFrames
	defer func() {
		tc.specFrames = level - 1
		if r := recover(); r != nil {
			if _, isAbort := r.(abortSignal); isAbort && level == 1 {
				committed = false
				return
			}
			panic(r)
		}
	}()
	body()
	r := tc.do(op{kind: opTxEnd, lock: l})
	if r.aborted || !r.ok {
		panic(abortSignal{})
	}
	return true
}
