package coherence

import (
	"tlrsim/internal/memsys"
)

// storeBuffer is the TSO store buffer for NON-speculative stores (Table 2's
// "aggressive implementation" of total store ordering [8]): a plain store
// retires into the buffer in one cycle and drains to the cache in program
// order in the background, hiding store miss latency — most visibly the
// lock-release store of a BASE critical section. The issuing processor
// forwards its own buffered values; other processors see a store only when
// it drains (its global ordering point, which is also when the functional
// checker applies it).
//
// Ordering rules implemented here:
//   - store→store: drains strictly in FIFO order;
//   - load→own-store: forwards the newest buffered value per word;
//   - atomics (LL/SC, Swap, CAS, FetchAdd) and transaction begin/commit
//     fence: they wait for the buffer to empty first.
type storeBuffer struct {
	entries  []sbEntry
	max      int
	draining bool

	// onEmpty holds the requests fenced behind the buffered stores
	// (atomics and Fence); onSpace the stores that found the buffer full.
	onEmpty, onSpace parked
}

// parked is a queue of requests resumed in passes: a request parked while a
// pass runs waits for the next pass. Two backing arrays alternate between
// the queue and the running pass, so steady-state passes allocate nothing.
type parked struct {
	q, spare []req
}

func (p *parked) add(r req) { p.q = append(p.q, r) }

// take detaches the queued requests for a pass.
func (p *parked) take() []req {
	run := p.q
	p.q, p.spare = p.spare[:0], nil
	return run
}

// release hands a finished pass's array back for reuse.
func (p *parked) release(run []req) {
	clear(run)
	if p.spare == nil {
		p.spare = run[:0]
	}
}

// reset drops every parked request, keeping the arrays.
func (p *parked) reset() {
	clear(p.q)
	p.q = p.q[:0]
}

type sbEntry struct {
	addr memsys.Addr
	val  uint64
}

func newStoreBuffer(max int) *storeBuffer {
	if max <= 0 {
		return nil
	}
	return &storeBuffer{max: max}
}

// forward returns the newest buffered value for a word, if any.
func (sb *storeBuffer) forward(a memsys.Addr) (uint64, bool) {
	for i := len(sb.entries) - 1; i >= 0; i-- {
		if sb.entries[i].addr == a {
			return sb.entries[i].val, true
		}
	}
	return 0, false
}

// empty reports whether nothing is buffered.
func (sb *storeBuffer) empty() bool { return len(sb.entries) == 0 }

// push buffers a store; full=false means the caller must wait for space.
func (sb *storeBuffer) push(a memsys.Addr, v uint64) bool {
	if len(sb.entries) >= sb.max {
		return false
	}
	sb.entries = append(sb.entries, sbEntry{a, v})
	return true
}

// sbStore retries a store that found the store buffer full.
func (c *Controller) sbStore(r req) {
	if !c.sb.push(r.addr, r.v) {
		// Still full: the store (and the processor) keeps stalling.
		c.sb.onSpace.add(r)
		return
	}
	c.sbDrain()
	r.k.done(r.ret, true)
}

// sbDrain retires the head entry through the normal blocking store path.
func (c *Controller) sbDrain() {
	if c.sb.draining || c.sb.empty() {
		return
	}
	c.sb.draining = true
	head := c.sb.entries[0]
	c.storeExec(req{kind: reqDrain, addr: head.addr, v: head.val})
}

// sbDrained pops the drained head entry, resumes the requests waiting for
// space (and, once the buffer is empty, the fenced ones), then drains the
// next entry.
func (c *Controller) sbDrained() {
	sb := c.sb
	sb.draining = false
	n := copy(sb.entries, sb.entries[1:])
	sb.entries = sb.entries[:n]
	if len(sb.onSpace.q) > 0 {
		c.resumeParked(&sb.onSpace)
	}
	if sb.empty() && len(sb.onEmpty.q) > 0 {
		c.resumeParked(&sb.onEmpty)
	}
	c.sbDrain()
}

// resumeParked runs one pass over p's requests.
func (c *Controller) resumeParked(p *parked) {
	run := p.take()
	for _, r := range run {
		switch r.kind {
		case reqFence:
			r.k.done(0, true)
		case reqSC:
			c.SC(r.addr, r.v, r.k)
		case reqRMW:
			c.rmwNonSpec(r)
		default: // reqStore
			c.sbStore(r)
		}
	}
	p.release(run)
}

// Fence completes k after all buffered stores have drained (at once
// without a store buffer). Atomics and transaction boundaries use it.
func (c *Controller) Fence(k Cont) {
	if c.sb == nil || c.sb.empty() {
		k.done(0, true)
		return
	}
	c.sb.onEmpty.add(req{kind: reqFence, k: k})
}

// sbForward lets loads observe the processor's own buffered stores.
func (c *Controller) sbForward(a memsys.Addr) (uint64, bool) {
	if c.sb == nil {
		return 0, false
	}
	return c.sb.forward(a)
}

// storeBufferedLines reports buffered entries (quiescence checks).
func (c *Controller) storeBufferedLen() int {
	if c.sb == nil {
		return 0
	}
	return len(c.sb.entries)
}
