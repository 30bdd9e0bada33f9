package coherence

// Machine reuse and snapshot support. Reset rewinds a quiescent system to
// construction state without re-allocating; AdoptState makes a quiescent
// system's observable state identical to another's (deep copy). Quiescence
// is the precondition for both: no bus transaction in flight, no MSHRs, no
// buffered stores, no transaction mid-flight in any engine. At such a point
// every map the controllers own holds only either persistent architectural
// state (copied) or per-request bookkeeping (necessarily empty), and all
// pooled bus messages are back on their free lists — which is why pooling
// can survive reuse untouched.

// reset rewinds the controller to the state newController constructs,
// keeping every map and buffer allocation.
func (c *Controller) reset() {
	c.cache.Reset()
	c.wb.Discard()
	if c.sb != nil {
		c.sb.reset()
	}
	clear(c.mshrs)
	clear(c.draining)
	clear(c.wbPending)
	clear(c.wbSuperseded)
	c.linkLine, c.linkValid = 0, false
	clear(c.specReads)
	c.drainForwarding = false
	c.sbLoadForward = false
	// Stale spin-wait subscribers and commit waiters are continuations into
	// a finished run's thread state; dropping them is required, not
	// optional.
	clear(c.lineSubs)
	c.commitWaiter = Cont{}
	clear(c.fillForward)
	c.stats = Stats{}
}

// adoptState copies src's persistent state — cache contents, link register,
// write-back-pending lines, and stats — into c. Both controllers must be
// quiescent (per-request maps empty), which System.AdoptState asserts.
func (c *Controller) adoptState(src *Controller) {
	c.cache.AdoptState(src.cache)
	c.wb.Discard()
	if c.sb != nil {
		c.sb.reset()
	}
	clear(c.mshrs)
	clear(c.draining)
	clear(c.wbPending)
	for a, d := range src.wbPending {
		c.wbPending[a] = d
	}
	clear(c.wbSuperseded)
	for a, v := range src.wbSuperseded {
		c.wbSuperseded[a] = v
	}
	c.linkLine, c.linkValid = src.linkLine, src.linkValid
	clear(c.specReads)
	c.drainForwarding = false
	c.sbLoadForward = false
	clear(c.lineSubs)
	c.commitWaiter = Cont{}
	clear(c.fillForward)
	c.stats = src.stats
}

// reset empties the store buffer and drops its parked requests.
func (sb *storeBuffer) reset() {
	sb.entries = sb.entries[:0]
	sb.draining = false
	sb.onEmpty.reset()
	sb.onSpace.reset()
}

// reset forgets which lines have migrated into the L2 (first-touch latency
// behaviour returns to construction state — this is observable timing state,
// so skipping it would break reuse determinism).
func (m *MemController) reset() { clear(m.inL2) }

// adoptState copies src's L2 presence set.
func (m *MemController) adoptState(src *MemController) {
	clear(m.inL2)
	for a, v := range src.inL2 {
		m.inL2[a] = v
	}
}

// Reset rewinds the whole memory system to construction state. The caller
// (proc.Machine.Reset) has already verified quiescence and reset the
// engines; kernel reset is also the caller's job.
func (s *System) Reset() {
	s.Bus.Reset()
	s.Mem.Reset()
	for _, c := range s.Ctrls {
		c.reset()
	}
	s.MemC.reset()
	if s.Check != nil {
		s.Check.Reset()
	}
	if s.Tracer != nil {
		s.Tracer.Reset()
	}
	clear(s.lockLines)
}

// AdoptState makes s's observable state identical to src's. Both systems
// must be quiescent and share the same construction shape (processor count,
// cache geometry, buffer sizes). The tracer is NOT copied: a forked machine
// starts with an empty trace so per-phase traces stay per-phase.
func (s *System) AdoptState(src *System) {
	if !s.Quiescent() || !src.Quiescent() {
		panic("coherence: AdoptState on a non-quiescent system")
	}
	s.Bus.AdoptState(src.Bus)
	s.Mem.AdoptState(src.Mem)
	for i, c := range s.Ctrls {
		c.adoptState(src.Ctrls[i])
	}
	s.MemC.adoptState(src.MemC)
	if s.Check != nil && src.Check != nil {
		s.Check.AdoptState(src.Check)
	}
	clear(s.lockLines)
	for a, v := range src.lockLines {
		s.lockLines[a] = v
	}
}
