// Package cache implements the L1 data cache structures of the target
// system (Table 2): a set-associative array with MOESI line states and LRU
// replacement, per-line speculative access bits (the 1-bit-per-block
// transaction tracking of Figure 5, split into read and written bits so
// read-read sharing is not a conflict), a small fully-associative victim
// cache that extends the conflict-miss capacity available to transactions
// (§3.3), and the speculative write buffer that holds transactional updates
// until commit.
//
// The protocol engine lives in package coherence; this package only owns
// storage and replacement.
package cache

import (
	"fmt"
	"slices"

	"tlrsim/internal/fault"
	"tlrsim/internal/memsys"
)

// State is a MOESI coherence state.
type State uint8

const (
	Invalid State = iota
	Shared
	Exclusive
	Owned
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Owned:
		return "O"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Valid reports whether the line holds usable data.
func (s State) Valid() bool { return s != Invalid }

// Writable reports whether the line may be written without a bus request.
func (s State) Writable() bool { return s == Modified || s == Exclusive }

// IsOwner reports whether this cache must supply data for the line
// ("retainable block" in Figure 3: an exclusively owned coherence state; O
// also supplies under MOESI).
func (s State) IsOwner() bool { return s == Modified || s == Exclusive || s == Owned }

// Dirty reports whether eviction requires a write-back.
func (s State) Dirty() bool { return s == Modified || s == Owned }

// Line is one cache line frame.
type Line struct {
	Tag   memsys.Addr // line base address; meaningful only when State.Valid()
	State State
	Data  memsys.LineData

	// SpecRead/SpecWritten are the transaction access bits. SpecWritten
	// means the in-flight transaction has a buffered store to the line (the
	// data here stays non-speculative; speculative values live only in the
	// write buffer until commit).
	SpecRead    bool
	SpecWritten bool

	// Masked marks a line whose ownership of record has already moved to a
	// deferred requester: this cache still holds the data (and must supply
	// it when the deferral resolves) but no longer answers owner snoops —
	// the conflict is masked from the coherence protocol (§3).
	Masked bool

	lru    uint64
	victim bool
}

// Spec reports whether the line is in the current transaction's data set.
func (l *Line) Spec() bool { return l.SpecRead || l.SpecWritten }

// Evicted describes a line displaced by Insert.
type Evicted struct {
	Tag   memsys.Addr
	State State
	Data  memsys.LineData
}

// Config sizes the cache.
type Config struct {
	SizeBytes     int // total capacity (131072 = 128 KB in Table 2)
	Ways          int // associativity (4)
	VictimEntries int // victim cache entries (16, §4's worked example)
}

// Stats counts array activity.
type Stats struct {
	Hits             uint64
	Evictions        uint64
	WritebackEvicts  uint64
	VictimHits       uint64
	SpecOverflowEvts uint64 // failed Insert due to speculative footprint
}

// Cache is the L1 data array plus victim cache.
type Cache struct {
	cfg     Config
	sets    [][]Line
	numSets int
	victim  []Line
	tick    uint64
	stats   Stats

	// specTouched records the line addresses whose frames had an access bit
	// set this transaction, so ClearSpecBits clears exactly those frames
	// instead of scanning the whole array (a per-commit/per-abort cost).
	// Frames are tracked by address, not pointer: victim moves and
	// compaction relocate frames, but Probe always finds the live copy.
	specTouched []memsys.Addr

	// faults, when non-nil, applies transient victim-cache capacity
	// pressure: individual spills are refused as if the victim were full,
	// which is indistinguishable from a mid-run shrink of the victim array
	// and escalates through the §3.3 resource-overflow fallback.
	faults *fault.Injector
}

// SetFaults attaches (or with nil detaches) the fault injector.
func (c *Cache) SetFaults(in *fault.Injector) { c.faults = in }

// New builds a cache. SizeBytes/Ways/LineBytes must give a power-of-two set
// count.
func New(cfg Config) *Cache {
	if cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		panic("cache: bad geometry")
	}
	numSets := cfg.SizeBytes / (cfg.Ways * memsys.LineBytes)
	if numSets <= 0 || numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", numSets))
	}
	c := &Cache{cfg: cfg, numSets: numSets}
	c.sets = make([][]Line, numSets)
	c.victim = make([]Line, 0, cfg.VictimEntries)
	return c
}

// setFor returns the frames of line's set, allocated on first touch. Lazy
// allocation keeps machine construction proportional to the working set, not
// the configured capacity: a nil set reads as all-Invalid (Lookup and Probe
// iterate zero frames and miss), so only Insert needs real storage.
func (c *Cache) setFor(line memsys.Addr) []Line {
	i := c.setIndex(line)
	if c.sets[i] == nil {
		c.sets[i] = make([]Line, c.cfg.Ways)
	}
	return c.sets[i]
}

// Stats returns the array counters.
func (c *Cache) Stats() *Stats { return &c.stats }

// Reset invalidates every frame and rewinds LRU state and stats to
// construction state. Lazily allocated sets are kept and zeroed rather than
// dropped: a zeroed frame is Invalid, which reads identically to the nil
// set of a fresh cache, and keeping the arrays is what makes reuse
// allocation-free.
func (c *Cache) Reset() {
	for i := range c.sets {
		if c.sets[i] != nil {
			clear(c.sets[i])
		}
	}
	c.victim = c.victim[:0]
	c.tick = 0
	c.stats = Stats{}
	c.specTouched = c.specTouched[:0]
}

// AdoptState deep-copies src's frames, victim cache, LRU clock, and stats
// into c (snapshot restore). Both caches must share the same geometry.
func (c *Cache) AdoptState(src *Cache) {
	if c.cfg != src.cfg {
		panic("cache: AdoptState geometry mismatch")
	}
	for i := range c.sets {
		switch {
		case src.sets[i] == nil && c.sets[i] == nil:
			// Both untouched.
		case src.sets[i] == nil:
			clear(c.sets[i])
		default:
			if c.sets[i] == nil {
				c.sets[i] = make([]Line, c.cfg.Ways)
			}
			copy(c.sets[i], src.sets[i])
		}
	}
	c.victim = append(c.victim[:0], src.victim...)
	c.tick = src.tick
	c.stats = src.stats
	c.specTouched = append(c.specTouched[:0], src.specTouched...)
}

func (c *Cache) setIndex(line memsys.Addr) int {
	return int(uint64(line) / memsys.LineBytes % uint64(c.numSets))
}

// Lookup returns the frame holding line, searching the main array then the
// victim cache, or nil. It does not touch LRU state; use Touch on access.
func (c *Cache) Lookup(line memsys.Addr) *Line {
	line = line.Line()
	set := c.sets[c.setIndex(line)]
	for i := range set {
		if set[i].State.Valid() && set[i].Tag == line {
			return &set[i]
		}
	}
	for i := range c.victim {
		if c.victim[i].State.Valid() && c.victim[i].Tag == line {
			c.stats.VictimHits++
			return &c.victim[i]
		}
	}
	return nil
}

// Probe is Lookup without statistics side effects (for snooping and
// assertions).
func (c *Cache) Probe(line memsys.Addr) *Line {
	line = line.Line()
	set := c.sets[c.setIndex(line)]
	for i := range set {
		if set[i].State.Valid() && set[i].Tag == line {
			return &set[i]
		}
	}
	for i := range c.victim {
		if c.victim[i].State.Valid() && c.victim[i].Tag == line {
			return &c.victim[i]
		}
	}
	return nil
}

// Touch marks the line most-recently-used and counts a hit.
func (c *Cache) Touch(l *Line) {
	c.tick++
	l.lru = c.tick
	c.stats.Hits++
}

// Insert fills line with the given state and data. It returns the evicted
// line (if a valid, non-speculative frame was displaced) and ok=false when
// the insert is impossible without evicting speculatively-accessed data and
// the victim cache is full — the resource-constraint case that forces TLR to
// fall back to acquiring the lock (§3.3).
func (c *Cache) Insert(line memsys.Addr, st State, data memsys.LineData) (frame *Line, ev *Evicted, ok bool) {
	line = line.Line()
	if got := c.Probe(line); got != nil {
		// Re-fill of a present line (e.g. upgrade completed): update in place.
		got.State = st
		got.Data = data
		c.tick++
		got.lru = c.tick
		return got, nil, true
	}
	set := c.setFor(line)

	// 1) Free frame.
	for i := range set {
		if !set[i].State.Valid() {
			return c.fill(&set[i], line, st, data), nil, true
		}
	}
	// 2) LRU among non-speculative frames.
	if w := pickLRU(set, false); w >= 0 {
		ev = c.evictFrame(&set[w])
		return c.fill(&set[w], line, st, data), ev, true
	}
	// 3) Whole set is speculative: move the LRU speculative frame to the
	// victim cache, which preserves its access bits and ownership.
	if len(c.victim) < c.cfg.VictimEntries && !c.faults.RefuseVictim() {
		w := pickLRU(set, true)
		moved := set[w]
		moved.victim = true
		c.victim = append(c.victim, moved)
		return c.fill(&set[w], line, st, data), nil, true
	}
	// 4) Victim cache full of speculative lines too: resource overflow.
	c.stats.SpecOverflowEvts++
	return nil, nil, false
}

func (c *Cache) fill(f *Line, line memsys.Addr, st State, data memsys.LineData) *Line {
	c.tick++
	*f = Line{Tag: line, State: st, Data: data, lru: c.tick, victim: f.victim}
	return f
}

// pickLRU returns the least-recently-used way; when includeSpec is false it
// considers only non-speculative frames and returns -1 if none qualify.
func pickLRU(set []Line, includeSpec bool) int {
	best, bestLRU := -1, ^uint64(0)
	for i := range set {
		if !includeSpec && set[i].Spec() {
			continue
		}
		if set[i].lru <= bestLRU {
			best, bestLRU = i, set[i].lru
		}
	}
	return best
}

func (c *Cache) evictFrame(f *Line) *Evicted {
	c.stats.Evictions++
	if f.State.Dirty() {
		c.stats.WritebackEvicts++
	}
	ev := &Evicted{Tag: f.Tag, State: f.State, Data: f.Data}
	f.State = Invalid
	return ev
}

// Invalidate drops the line (external GetX/Upgrade). The frame (main or
// victim) becomes free. Victim frames are compacted out.
func (c *Cache) Invalidate(line memsys.Addr) {
	line = line.Line()
	if l := c.Probe(line); l != nil {
		l.State = Invalid
		c.compactVictim()
	}
}

func (c *Cache) compactVictim() {
	out := c.victim[:0]
	for _, v := range c.victim {
		if v.State.Valid() {
			out = append(out, v)
		}
	}
	c.victim = out
}

// MarkSpecRead sets the line's transactional-read bit, registering the
// address for ClearSpecBits. All spec-bit writers must go through MarkSpec*
// so the touched-line list stays complete.
func (c *Cache) MarkSpecRead(l *Line) {
	if !l.SpecRead && !l.SpecWritten {
		c.specTouched = append(c.specTouched, l.Tag)
	}
	l.SpecRead = true
}

// MarkSpecWritten sets the line's transactional-write bit, registering the
// address for ClearSpecBits.
func (c *Cache) MarkSpecWritten(l *Line) {
	if !l.SpecRead && !l.SpecWritten {
		c.specTouched = append(c.specTouched, l.Tag)
	}
	l.SpecWritten = true
}

// ClearSpecBits ends a transaction: all access bits drop (the end_defer
// message's effect in Figure 5), and victim frames that only existed to hold
// speculative lines become ordinary victims. Only the lines touched this
// transaction are visited. Invalidated frames may keep stale bits, which is
// harmless: every reader of the bits reaches frames through Probe (valid
// frames only), free-frame selection in Insert precedes the spec-aware LRU
// pick, and fill() resets the bits on reuse.
func (c *Cache) ClearSpecBits() {
	for _, line := range c.specTouched {
		if l := c.Probe(line); l != nil {
			l.SpecRead = false
			l.SpecWritten = false
		}
	}
	c.specTouched = c.specTouched[:0]
}

// SpecLines returns the line addresses currently in the transaction's data
// set, sorted for deterministic iteration.
func (c *Cache) SpecLines() []memsys.Addr {
	var out []memsys.Addr
	for s := range c.sets {
		for i := range c.sets[s] {
			if c.sets[s][i].State.Valid() && c.sets[s][i].Spec() {
				out = append(out, c.sets[s][i].Tag)
			}
		}
	}
	for i := range c.victim {
		if c.victim[i].State.Valid() && c.victim[i].Spec() {
			out = append(out, c.victim[i].Tag)
		}
	}
	slices.Sort(out)
	return out
}

// ForEachValid visits every valid frame (checker support).
func (c *Cache) ForEachValid(fn func(*Line)) {
	for s := range c.sets {
		for i := range c.sets[s] {
			if c.sets[s][i].State.Valid() {
				fn(&c.sets[s][i])
			}
		}
	}
	for i := range c.victim {
		if c.victim[i].State.Valid() {
			fn(&c.victim[i])
		}
	}
}

// VictimLen reports current victim-cache occupancy.
func (c *Cache) VictimLen() int { return len(c.victim) }
