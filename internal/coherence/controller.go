package coherence

import (
	"fmt"

	"tlrsim/internal/bus"
	"tlrsim/internal/cache"
	"tlrsim/internal/core"
	"tlrsim/internal/memsys"
	"tlrsim/internal/stamp"
)

// chainEntry is a request snooped while this controller was the pending
// owner-of-record for the line: the per-MSHR tail of a coherence chain
// (§3.1.1). At most one ownership-taking (GetX/Upgrade) entry can exist,
// always last, because once it is ordered the ownership of record moves on.
type chainEntry struct {
	txn *bus.Txn
}

// mshr tracks one outstanding miss (miss status handling register). Records
// are recycled through the controller's free list (newMSHR/releaseMSHR);
// gen counts the record's reuses, so a reference held across events (the
// NACK-retry event) can tell its miss from a later one in the same record.
type mshr struct {
	gen uint64

	line    memsys.Addr
	kind    bus.Kind // GetS or GetX (Upgrade converts on loss)
	txnID   uint64
	stamp   stamp.Stamp
	ordered bool

	wantWritable bool
	spec         bool // issued from within a transaction
	specWrite    bool // the transaction has a buffered store to this line

	// upgradeAfterFill: a GetS is in flight but ownership became necessary
	// meanwhile; issue the upgrade once data lands.
	upgradeAfterFill bool

	chain []chainEntry

	// Marker/probe plumbing (§3.1.1): upstream is the neighbour that will
	// eventually send us data; probes queue here until it is known.
	upstream      int
	hasUpstream   bool
	pendingProbes []stamp.Stamp

	// conflictLost: while pending we learned of a conflicting request with
	// an earlier timestamp chained directly at this MSHR. Enforced at fill
	// by serviceChain's re-resolution (lose: abort, then service); kept
	// here for diagnosis.
	conflictLost bool

	// probeLost: a probe carrying a timestamp earlier than our
	// transaction's transited this MSHR on its way upstream (§3.1.1,
	// Figure 6) — a conflicting older transaction waits somewhere DEEPER
	// in the chain behind us, beyond the entries serviceChain re-resolves
	// at fill. Probes are edge-triggered: they chase the data holder of
	// the moment, so once we fill and become the holder ourselves the
	// older transaction has no way to re-probe us, and if our deferrals
	// then park the chain while we block on another contested line, the
	// Figure 6 wait cycle re-forms around us with no message left to break
	// it. Pre-emptively losing at fill whenever this flag is set would
	// close that window but converts nearly every probe transit into an
	// abort and collapses TLR's high-contention scaling; instead the
	// machine's deadlock recovery (proc.runLoop) squashes the youngest
	// deferring transaction if the cycle actually completes. The flag is
	// kept as a diagnostic: a deadlocked dump showing probeLost on a
	// filled-and-deferring holder is this exact race.
	probeLost bool

	// handedOff: an ownership-taking request has chained here, so the
	// ownership of record has moved on; later requests chain at the new
	// pending owner and this controller stops answering owner snoops.
	handedOff bool

	// invalidated: an ownership-taking request was ordered after ours
	// (GetS only) — forward the fill value to waiters but do not cache it.
	invalidated bool

	// mustShare: another reader's GetS was ordered while ours was pending,
	// so the fill may not install Exclusive even if the supplier saw no
	// sharers at our own order point.
	mustShare bool

	// nackRetries counts NACK-and-retry rounds (NACK retention mode); the
	// backoff grows with it and a cap forces the lock fallback.
	nackRetries int

	// priority: the request has been NACKed past the pathological
	// threshold and reissues as a Priority transaction no owner may refuse
	// (the non-speculative forward-progress escalation).
	priority bool

	waiters []req
}

// Completer receives the completions of the CPU-issued memory operations
// bound to it (see Cont).
type Completer interface {
	// OpDone finishes the operation bound as Cont{To, kind, tok}. ok=false
	// means the operation was squashed because the transaction it belonged
	// to aborted; val is then meaningless.
	OpDone(kind uint8, tok, val uint64, ok bool)
}

// Cont is a CPU operation's continuation, bound by the caller before issue
// in the sim.Callback style: a receiver plus plain values, never a closure,
// so issuing and parking an operation allocates nothing. Kind selects the
// caller's next step and Tok is the caller's sequence token, which lets it
// drop a completion that arrives after the operation was squashed.
type Cont struct {
	To   Completer
	Kind uint8
	Tok  uint64
}

func (k Cont) done(val uint64, ok bool) { k.To.OpDone(k.Kind, k.Tok, val, ok) }

// reqKind names the step a parked request runs when it resumes.
type reqKind uint8

const (
	reqLoad    reqKind = iota // load miss: deliver the filled word
	reqLL                     // load-linked: deliver the word, arm the link
	reqSpecRMW                // speculative Swap/CAS/FetchAdd: load, then buffered store
	reqStore                  // blocking store, completing with ret
	reqDrain                  // the store buffer's head entry draining to the cache
	reqSC                     // non-speculative store-conditional
	reqRMW                    // non-speculative Swap/CAS/FetchAdd
	reqFence                  // Fence: complete once the store buffer is empty
)

// rmwOp is the update an atomic read-modify-write applies.
type rmwOp uint8

const (
	rmwSwap rmwOp = iota
	rmwCAS
	rmwAdd
)

// req is a CPU operation parked inside the controller — on a miss record's
// waiter list, or on the store buffer's fence and space queues — as a typed
// record: its kind, its operands and the caller's continuation. A fill runs
// the post-fill step through wake; the store buffer re-runs the operation
// through resumeParked.
type req struct {
	kind reqKind
	rmw  rmwOp
	addr memsys.Addr
	// v is the value to store: the store's value, the Swap value, the
	// FetchAdd delta or the CAS new value. cmp is the CAS expected value.
	v, cmp uint64
	// ret is what a store reports on completion: its own value, SC's 1, or
	// the old value a speculative read-modify-write observed.
	ret uint64
	// txSeq is the transaction a load observes its word under (the
	// functional checker's staleness test).
	txSeq uint64
	k     Cont
}

// apply returns the value r's read-modify-write writes over old, and
// whether it writes at all (a failed CAS does not).
func (r *req) apply(old uint64) (uint64, bool) {
	switch r.rmw {
	case rmwSwap:
		return r.v, true
	case rmwCAS:
		return r.v, old == r.cmp
	default:
		return old + r.v, true
	}
}

// wake runs r's post-fill step once its fill has landed (or is being
// forwarded).
func (c *Controller) wake(r req) {
	switch r.kind {
	case reqLoad, reqLL, reqSpecRMW:
		v := c.localWord(r.addr)
		if c.sys.Check != nil {
			c.checkLoad(r.addr, v, r.txSeq)
		}
		c.loaded(r, v)
	case reqStore, reqDrain:
		c.storeFilled(r)
	case reqSC:
		c.scFilled(r)
	case reqRMW:
		c.rmwFilled(r)
	}
}

// Stats counts controller-level activity.
type Stats struct {
	Loads, Stores   uint64
	Misses          uint64
	Upgrades        uint64
	Writebacks      uint64
	ChainedRequests uint64
	SpecOverflows   uint64
	NacksSent       uint64
	NackRetries     uint64
}

// Controller is one processor's L1 cache controller with TLR support
// (Figure 5: access bits in the cache, a deferred-request queue, and
// timestamped misses).
type Controller struct {
	sys *System
	id  int

	cache *cache.Cache
	wb    *cache.WriteBuffer
	sb    *storeBuffer
	eng   *core.Engine

	mshrs map[memsys.Addr]*mshr
	// freeMSHRs holds retired miss records for reuse, slices and all.
	freeMSHRs []*mshr

	// draining holds invalidated GetS requests (ordered before a writer)
	// detached from the line: their data, when it arrives, is forwarded to
	// the waiters that attached before the invalidation and nothing more.
	// Keyed by transaction id. New requests for the line reissue freshly.
	draining map[uint64]*mshr

	// wbPending holds dirty lines between eviction and write-back ordering
	// so the controller can still supply them (split-transaction race).
	wbPending map[memsys.Addr]memsys.LineData

	// wbSuperseded marks in-flight write-backs whose data was handed to a
	// new exclusive owner before the write-back ordered: memory must skip
	// them, or a stale write-back ordered after the new owner's fresher one
	// would corrupt memory.
	wbSuperseded map[memsys.Addr]bool

	// LL/SC link register.
	linkLine  memsys.Addr
	linkValid bool

	// specReads is the functional checker's view of the transaction's read
	// set: the first value observed per word (own buffered writes excluded).
	specReads map[memsys.Addr]uint64

	// drainForwarding is set while forward-only fill waiters run, exempting
	// those loads from the checker's equality test (they legally observe
	// pre-writer data).
	drainForwarding bool

	// sbLoadForward is set while a load forwards from the store buffer
	// (the buffered store has not reached its global ordering point, so the
	// checker must not compare against the shadow).
	sbLoadForward bool

	// lineSubs are spin-wait subscribers notified when the line changes
	// visibility (invalidation or fill). spareSubs is a drained subscriber
	// array kept for the next line notifyLine detaches.
	lineSubs  map[memsys.Addr][]Cont
	spareSubs []Cont

	// commitWaiter is armed (To non-nil) while the CPU sits at transaction
	// end waiting for all write-buffer lines to reach a writable state
	// (§2.2 step 4).
	commitWaiter Cont

	// fillForward passes values to waiters when a fill cannot be installed
	// (a GetS that was invalidated while pending): the load was ordered
	// before the writer, so it legally observes the pre-write data, but the
	// line must not be cached.
	fillForward map[memsys.Addr]uint64

	// OnAbort is invoked (synchronously, in kernel context) whenever the
	// in-flight transaction is squashed; the CPU uses it to unblock the
	// current operation and restart the thread.
	OnAbort func(core.Reason)

	stats Stats
}

func newController(s *System, id int, eng *core.Engine) *Controller {
	return &Controller{
		sys:          s,
		id:           id,
		cache:        cache.New(s.cfg.Cache),
		wb:           cache.NewWriteBuffer(s.cfg.WriteBufferLines),
		sb:           newStoreBuffer(s.cfg.StoreBufferEntries),
		eng:          eng,
		mshrs:        make(map[memsys.Addr]*mshr),
		draining:     make(map[uint64]*mshr),
		wbPending:    make(map[memsys.Addr]memsys.LineData),
		wbSuperseded: make(map[memsys.Addr]bool),
		specReads:    make(map[memsys.Addr]uint64),
		lineSubs:     make(map[memsys.Addr][]Cont),
		fillForward:  make(map[memsys.Addr]uint64),
	}
}

// ID returns the controller's processor id.
func (c *Controller) ID() int { return c.id }

// Engine returns the attached TLR/SLE engine.
func (c *Controller) Engine() *core.Engine { return c.eng }

// Cache exposes the cache array (tests and checkers).
func (c *Controller) Cache() *cache.Cache { return c.cache }

// Stats returns controller counters.
func (c *Controller) Stats() *Stats { return &c.stats }

// MSHRCount reports outstanding misses (the observability sampler probe).
func (c *Controller) MSHRCount() int { return len(c.mshrs) }

// WriteBufferLines reports the speculative write-buffer occupancy.
func (c *Controller) WriteBufferLines() int { return c.wb.LineCount() }

// ---------------------------------------------------------------------------
// CPU-facing operations
// ---------------------------------------------------------------------------

// Load performs a load of the word at a. wantExcl requests the line in an
// exclusive state up front (RMW-predictor collapse, §3.1.2). k completes
// with the value once it is available (possibly immediately, in the current
// event).
func (c *Controller) Load(a memsys.Addr, wantExcl bool, k Cont) {
	c.load(req{kind: reqLoad, addr: a, k: k}, wantExcl)
}

// load runs a load-kind request: on a hit its next step runs now, on a miss
// when the fill lands.
func (c *Controller) load(r req, wantExcl bool) {
	if v, ok := c.LoadHit(r.addr, wantExcl); ok {
		c.loaded(r, v)
		return
	}
	c.loadMiss(r, wantExcl)
}

// loaded runs a load-kind request's step after its word v arrived.
func (c *Controller) loaded(r req, v uint64) {
	switch r.kind {
	case reqLL:
		// The link only arms if the line actually installed: a
		// forward-only fill (our read was ordered before a writer that has
		// since invalidated the line) must leave it broken, or the
		// subsequent SC could succeed on a stale observation and break
		// mutual exclusion.
		if c.cache.Probe(r.addr.Line()) != nil {
			c.linkLine = r.addr.Line()
			c.linkValid = true
		} else {
			c.linkValid = false
		}
	case reqSpecRMW:
		nv, write := r.apply(v)
		if write {
			c.store(req{kind: reqStore, addr: r.addr, v: nv, ret: v, k: r.k})
			return
		}
	}
	r.k.done(v, true)
}

// LoadHit services a load synchronously when no kernel round-trip is needed:
// write-buffer or store-buffer forwarding, or a cache hit (including a hit
// that starts a background upgrade). It reports false — with no side
// effects — when the load must take the miss path. This is the CPU's
// cache-hit fast path: a hit costs no scheduled events beyond the op's own
// issue tick, charging the same simulated latency as before.
func (c *Controller) LoadHit(a memsys.Addr, wantExcl bool) (uint64, bool) {
	spec := c.eng.Speculating()
	if spec {
		if v, ok := c.wb.Read(a); ok {
			// Store-to-load forwarding from the speculative write buffer.
			c.stats.Loads++
			if c.sys.Check != nil {
				c.checkLoad(a, v, c.eng.TxSeq())
			}
			return v, true
		}
	} else if v, ok := c.sbForward(a); ok {
		// TSO load→own-store forwarding from the store buffer.
		c.stats.Loads++
		if c.sys.Check != nil {
			c.sbLoadForward = true
			c.checkLoad(a, v, c.eng.TxSeq())
			c.sbLoadForward = false
		}
		return v, true
	}
	line := a.Line()
	l := c.cache.Probe(line)
	if l == nil {
		return 0, false
	}
	c.stats.Loads++
	c.cache.Touch(l)
	if spec {
		c.cache.MarkSpecRead(l)
	}
	if wantExcl && !l.State.Writable() {
		// Predicted RMW on a shared copy: start the upgrade early but
		// do not block the load.
		c.ensureWritable(line, spec, false)
	}
	v := l.Data[a.WordIndex()]
	if c.sys.Check != nil {
		c.checkLoad(a, v, c.eng.TxSeq())
	}
	return v, true
}

// LoadMiss issues the asynchronous miss path for a load that LoadHit
// declined. Callers must have called LoadHit (unsuccessfully) in the same
// event.
func (c *Controller) LoadMiss(a memsys.Addr, wantExcl bool, k Cont) {
	c.loadMiss(req{kind: reqLoad, addr: a, k: k}, wantExcl)
}

func (c *Controller) loadMiss(r req, wantExcl bool) {
	c.stats.Loads++
	c.stats.Misses++
	spec := c.eng.Speculating()
	line := r.addr.Line()
	excl := wantExcl || (spec && c.eng.WantExclusiveRead(line))
	m := c.ensureMSHR(line, excl, spec, false)
	r.txSeq = c.eng.TxSeq()
	m.waiters = append(m.waiters, r)
}

// checkLoad feeds a completed load to the functional checker: speculative
// reads are recorded for commit-time validation; plain reads are validated
// immediately.
func (c *Controller) checkLoad(a memsys.Addr, v uint64, txSeq uint64) {
	if c.eng.Speculating() {
		if c.eng.Aborted() || c.eng.TxSeq() != txSeq {
			return // stale callback from a dead transaction
		}
		if _, own := c.wb.Read(a); own {
			return // reads own buffered write
		}
		if _, seen := c.specReads[a]; !seen {
			c.specReads[a] = v
		}
		return
	}
	c.sys.Check.PlainLoad(c.id, a, v, c.drainForwarding || c.sbLoadForward)
}

// localWord returns the value this CPU currently observes for a (write
// buffer, then cache, then the fill in flight has already installed it).
func (c *Controller) localWord(a memsys.Addr) uint64 {
	if c.eng.Speculating() {
		if v, ok := c.wb.Read(a); ok {
			return v
		}
	}
	if l := c.cache.Probe(a.Line()); l != nil {
		return l.Data[a.WordIndex()]
	}
	// Fill-and-forward without install (invalidated GetS): the fill path
	// passes the value through fillForward.
	return c.fillForward[a]
}

// StoreOutcome reports how StoreFast handled a store.
type StoreOutcome int

const (
	// StoreSlow: not handled; the caller must take the asynchronous Store
	// path. No side effects occurred.
	StoreSlow StoreOutcome = iota
	// StoreDone: the store completed synchronously and successfully.
	StoreDone
	// StoreAborted: a speculative overflow aborted the transaction; the
	// OnAbort callback has already squashed the in-flight operation.
	StoreAborted
)

// StoreFast attempts the synchronous store paths: speculative stores (which
// always resolve in the issuing event, by buffering or by overflow-abort),
// a store-buffer push with space available, or a direct writable hit. It
// reports StoreSlow, with no side effects, when the store needs the
// asynchronous path.
func (c *Controller) StoreFast(a memsys.Addr, v uint64) StoreOutcome {
	if c.eng.Speculating() {
		c.stats.Stores++
		if c.sys.Faults.RefuseWB() || !c.wb.Write(a, v) {
			// Write-buffer capacity exhausted (or injected capacity
			// pressure): resource misspeculation and lock acquisition
			// (§3.3).
			c.stats.SpecOverflows++
			c.AbortTxn(core.ReasonResource)
			return StoreAborted
		}
		line := a.Line()
		if l := c.cache.Probe(line); l != nil {
			c.cache.MarkSpecWritten(l)
			c.cache.MarkSpecRead(l)
			if !l.State.Writable() {
				c.ensureWritable(line, true, true)
			}
		} else {
			if _, inFlight := c.mshrs[line]; !inFlight {
				c.stats.Misses++
			}
			m := c.ensureMSHR(line, true, true, true)
			m.specWrite = true
		}
		return StoreDone
	}
	if c.sb != nil {
		if !c.sb.push(a, v) {
			return StoreSlow // buffer full: the processor stalls for space
		}
		c.stats.Stores++
		c.sbDrain()
		return StoreDone
	}
	line := a.Line()
	if l := c.cache.Probe(line); l != nil && l.State.Writable() {
		c.stats.Stores++
		c.cache.Touch(l)
		l.Data[a.WordIndex()] = v
		l.State = cache.Modified
		c.checkStore(a, v)
		c.notifyLine(line)
		return StoreDone
	}
	return StoreSlow
}

// Store performs a store of v to a. Speculative stores land in the write
// buffer and return immediately (the exclusive request proceeds in the
// background; commit waits for it). Non-speculative stores block until the
// line is writable.
func (c *Controller) Store(a memsys.Addr, v uint64, k Cont) {
	c.store(req{kind: reqStore, addr: a, v: v, ret: v, k: k})
}

func (c *Controller) store(r req) {
	switch c.StoreFast(r.addr, r.v) {
	case StoreDone:
		r.k.done(r.ret, true)
		return
	case StoreAborted:
		r.k.done(r.ret, false)
		return
	}
	c.stats.Stores++
	// Non-speculative path: through the TSO store buffer when enabled.
	if c.sb != nil {
		// Buffer full: the store (and the processor) stalls for space.
		c.sb.onSpace.add(r)
		return
	}
	c.storeExec(r)
}

// storeExec performs a non-speculative store against the cache, blocking
// until the line is writable (the drain path of the store buffer, or the
// direct path when no buffer is configured).
func (c *Controller) storeExec(r req) {
	line := r.addr.Line()
	if l := c.cache.Probe(line); l != nil && l.State.Writable() {
		c.writeStore(l, r)
		return
	}
	c.stats.Misses++
	m := c.ensureWritable(line, false, false)
	m.waiters = append(m.waiters, r)
}

// storeFilled is a blocking store's post-fill step.
func (c *Controller) storeFilled(r req) {
	l := c.cache.Probe(r.addr.Line())
	if l == nil || !l.State.Writable() {
		// Lost the line between fill and this waiter (stolen by a chained
		// GetX). Retry the store.
		c.storeExec(r)
		return
	}
	c.writeStore(l, r)
}

// writeStore applies a blocking store to its writable line and completes
// it.
func (c *Controller) writeStore(l *cache.Line, r req) {
	c.cache.Touch(l)
	l.Data[r.addr.WordIndex()] = r.v
	l.State = cache.Modified
	c.checkStore(r.addr, r.v)
	c.notifyLine(r.addr.Line())
	if r.kind == reqDrain {
		c.sbDrained()
		return
	}
	r.k.done(r.ret, true)
}

// checkStore feeds a completed plain store to the functional checker.
func (c *Controller) checkStore(a memsys.Addr, v uint64) {
	if c.sys.Check != nil {
		c.sys.Check.PlainStore(c.id, a, v)
	}
}

// LL performs a load-linked: a load that arms the link register.
func (c *Controller) LL(a memsys.Addr, k Cont) {
	c.load(req{kind: reqLL, addr: a, k: k}, false)
}

// SC performs a store-conditional of v to a; k's val is 1 on success, 0 on
// failure. Inside a transaction SC behaves as a buffered store (an inner
// lock treated as data, §4): atomicity is guaranteed by the transaction.
func (c *Controller) SC(a memsys.Addr, v uint64, k Cont) {
	if c.eng.Speculating() {
		c.store(req{kind: reqStore, addr: a, v: v, ret: 1, k: k})
		return
	}
	r := req{kind: reqSC, addr: a, v: v, k: k}
	line := a.Line()
	if c.sb != nil && !c.sb.empty() {
		c.sb.onEmpty.add(r)
		return
	}
	if !c.linkValid || c.linkLine != line {
		k.done(0, true)
		return
	}
	if l := c.cache.Probe(line); l != nil && l.State.Writable() {
		c.writeSC(l, r)
		return
	}
	// Need write permission; the link may break while we wait.
	c.stats.Misses++
	m := c.ensureWritable(line, false, false)
	m.waiters = append(m.waiters, r)
}

// scFilled is a store-conditional's post-fill step.
func (c *Controller) scFilled(r req) {
	line := r.addr.Line()
	l := c.cache.Probe(line)
	if !c.linkValid || c.linkLine != line || l == nil || !l.State.Writable() {
		r.k.done(0, true) // SC failed
		return
	}
	c.writeSC(l, r)
}

// writeSC performs a successful store-conditional on its writable line.
func (c *Controller) writeSC(l *cache.Line, r req) {
	l.Data[r.addr.WordIndex()] = r.v
	l.State = cache.Modified
	c.linkValid = false
	c.checkStore(r.addr, r.v)
	c.notifyLine(r.addr.Line())
	r.k.done(1, true)
}

// Swap atomically exchanges v with the word at a, returning the old value
// (MCS enqueue primitive). Non-speculatively it holds the line in M across
// the read-modify-write; speculatively it is a load + buffered store.
func (c *Controller) Swap(a memsys.Addr, v uint64, k Cont) {
	c.atomic(req{rmw: rmwSwap, addr: a, v: v, k: k})
}

// CAS atomically compares the word at a with old and, if equal, stores new.
// k's val is the observed value.
func (c *Controller) CAS(a memsys.Addr, old, newv uint64, k Cont) {
	c.atomic(req{rmw: rmwCAS, addr: a, v: newv, cmp: old, k: k})
}

// FetchAdd atomically adds delta to the word at a, returning the old value.
func (c *Controller) FetchAdd(a memsys.Addr, delta uint64, k Cont) {
	c.atomic(req{rmw: rmwAdd, addr: a, v: delta, k: k})
}

func (c *Controller) atomic(r req) {
	if c.eng.Speculating() {
		r.kind = reqSpecRMW
		c.load(r, true)
		return
	}
	r.kind = reqRMW
	c.rmwNonSpec(r)
}

// rmwNonSpec obtains the line in a writable state and applies r's update
// atomically. Atomics are fences under TSO: buffered stores drain first.
func (c *Controller) rmwNonSpec(r req) {
	if c.sb != nil && !c.sb.empty() {
		c.sb.onEmpty.add(r)
		return
	}
	line := r.addr.Line()
	if l := c.cache.Probe(line); l != nil && l.State.Writable() {
		c.cache.Touch(l)
		c.writeRMW(l, r)
		return
	}
	c.stats.Misses++
	m := c.ensureWritable(line, false, false)
	m.waiters = append(m.waiters, r)
}

// rmwFilled is a non-speculative read-modify-write's post-fill step.
func (c *Controller) rmwFilled(r req) {
	l := c.cache.Probe(r.addr.Line())
	if l == nil || !l.State.Writable() {
		c.rmwNonSpec(r) // line stolen; retry
		return
	}
	c.writeRMW(l, r)
}

// writeRMW applies r's update to its writable line and completes it with
// the old value.
func (c *Controller) writeRMW(l *cache.Line, r req) {
	a := r.addr
	old := l.Data[a.WordIndex()]
	nv, write := r.apply(old)
	if write {
		l.Data[a.WordIndex()] = nv
		l.State = cache.Modified
	}
	c.checkRMW(a, old, nv, write)
	if write {
		c.notifyLine(a.Line())
	}
	r.k.done(old, true)
}

// checkRMW feeds a completed atomic read-modify-write to the checker.
func (c *Controller) checkRMW(a memsys.Addr, old, nv uint64, wrote bool) {
	if c.sys.Check != nil {
		c.sys.Check.PlainRMW(c.id, a, old, nv, wrote)
	}
}

// SubscribeLine registers k to complete once when the visibility of line
// next changes (invalidation, fill, or local write) — the spin-wait
// mechanism.
func (c *Controller) SubscribeLine(line memsys.Addr, k Cont) {
	line = line.Line()
	c.lineSubs[line] = append(c.lineSubs[line], k)
}

func (c *Controller) notifyLine(line memsys.Addr) {
	line = line.Line()
	subs := c.lineSubs[line]
	if len(subs) == 0 {
		return
	}
	// The subscribers run from a detached list, so one that subscribes
	// again waits for the line's next change. The line takes the spare
	// array in its place and the detached one becomes the spare.
	c.lineSubs[line] = c.spareSubs
	c.spareSubs = nil
	for _, k := range subs {
		k.done(0, true)
	}
	clear(subs)
	if c.spareSubs == nil {
		c.spareSubs = subs[:0]
	}
}

// ---------------------------------------------------------------------------
// MSHR and bus request machinery
// ---------------------------------------------------------------------------

// ensureWritable guarantees an in-flight request that will leave the line
// writable: an Upgrade if we hold it shared, else a GetX.
func (c *Controller) ensureWritable(line memsys.Addr, spec, specWrite bool) *mshr {
	if m, ok := c.mshrs[line]; ok {
		m.wantWritable = true
		if specWrite {
			m.specWrite = true
		}
		if m.kind == bus.GetS {
			// A read miss is in flight but we now need ownership; the fill
			// path will issue the upgrade when data lands.
			m.upgradeAfterFill = true
		}
		return m
	}
	l := c.cache.Probe(line)
	kind := bus.GetX
	if l != nil && (l.State == cache.Shared || l.State == cache.Owned) {
		kind = bus.Upgrade
		c.stats.Upgrades++
	}
	return c.issue(line, kind, spec, specWrite)
}

// ensureMSHR guarantees an in-flight fill for the line.
func (c *Controller) ensureMSHR(line memsys.Addr, excl, spec, specWrite bool) *mshr {
	if m, ok := c.mshrs[line]; ok {
		if excl {
			m.wantWritable = true
			if m.kind == bus.GetS {
				m.upgradeAfterFill = true
			}
		}
		if specWrite {
			m.specWrite = true
		}
		if spec {
			m.spec = true
		}
		return m
	}
	kind := bus.GetS
	if excl {
		kind = bus.GetX
	}
	return c.issue(line, kind, spec, specWrite)
}

func (c *Controller) issue(line memsys.Addr, kind bus.Kind, spec, specWrite bool) *mshr {
	m := c.newMSHR()
	m.line = line
	m.kind = kind
	m.stamp = c.eng.Stamp()
	m.spec = spec
	m.specWrite = specWrite
	m.wantWritable = kind != bus.GetS
	m.upstream = bus.MemID
	c.mshrs[line] = m
	m.txnID = c.issueTxn(kind, line, m.stamp, false)
	// If we are speculating and just created a miss on a second line while
	// holding a relaxed-win deferral, timestamp order must be restored
	// (§3.2): the engine re-checks on the next conflict; additionally any
	// already-deferred earlier-timestamp request must now be honoured.
	if spec {
		c.enforceTimestampOrderAfterNewMiss(line)
	}
	return m
}

// issueTxn puts a pooled request transaction on the bus and returns its id.
func (c *Controller) issueTxn(kind bus.Kind, line memsys.Addr, ts stamp.Stamp, priority bool) uint64 {
	t := c.sys.Bus.NewTxn()
	t.Kind, t.Line, t.Src, t.Stamp, t.Priority = kind, line, c.id, ts, priority
	return c.sys.Bus.Issue(t)
}

// newMSHR takes a zeroed miss record from the free list (or allocates one).
func (c *Controller) newMSHR() *mshr {
	if n := len(c.freeMSHRs); n > 0 {
		m := c.freeMSHRs[n-1]
		c.freeMSHRs = c.freeMSHRs[:n-1]
		return m
	}
	return &mshr{}
}

// releaseMSHR recycles a miss record that no map, chain, or pending event
// can reach as live any more. The record is zeroed except for the backing
// arrays of its slices, and its generation advances. Under bus release
// poisoning the record is instead filled with garbage and never reused.
func (c *Controller) releaseMSHR(m *mshr) {
	if m.line == poisonLine {
		panic("coherence: release of a released miss record")
	}
	if bus.Poisoning() {
		*m = mshr{gen: m.gen + 1, line: poisonLine, txnID: ^uint64(0), kind: bus.Kind(-1),
			upstream: bus.MemID - 1, hasUpstream: true}
		return
	}
	clear(m.chain)
	clear(m.waiters)
	*m = mshr{
		gen:           m.gen + 1,
		chain:         m.chain[:0],
		waiters:       m.waiters[:0],
		pendingProbes: m.pendingProbes[:0],
	}
	c.freeMSHRs = append(c.freeMSHRs, m)
}

// poisonLine marks a released miss record under bus release poisoning.
const poisonLine = ^memsys.Addr(0)

// enforceTimestampOrderAfterNewMiss aborts the transaction if a deferred
// request with an earlier timestamp exists on a different line than the new
// miss: the single-block relaxation no longer applies and continuing to
// defer could deadlock.
func (c *Controller) enforceTimestampOrderAfterNewMiss(newLine memsys.Addr) {
	if !c.eng.Speculating() || c.eng.Policy().StrictTimestamps {
		return
	}
	my := c.eng.Stamp()
	for _, d := range c.eng.PeekDeferred() {
		if d.Line != newLine && d.Stamp.Valid && c.eng.StampBefore(d.Stamp, my) {
			c.AbortTxn(core.ReasonConflict)
			return
		}
	}
}

// SpecMissOutstanding reports whether a speculative miss for the line is in
// flight (stall-attribution support).
func (c *Controller) SpecMissOutstanding(a memsys.Addr) bool {
	m, ok := c.mshrs[a.Line()]
	return ok && m.spec
}

// otherSpecMissOutstanding reports whether the transaction has an unfilled
// miss on a line other than exclude (the §3.2 relaxation guard).
func (c *Controller) otherSpecMissOutstanding(exclude memsys.Addr) bool {
	for line, m := range c.mshrs {
		if line != exclude && m.spec {
			return true
		}
	}
	return false
}

func (c *Controller) mustProbe(line memsys.Addr) *cache.Line {
	l := c.cache.Probe(line)
	if l == nil {
		panic(fmt.Sprintf("coherence: P%d expected line %s present", c.id, line))
	}
	return l
}
