// Package bus models the Sun-Gigaplane-style interconnect of the paper's
// target system (Table 2): a split-transaction, ordered broadcast address
// network with a fixed snoop latency, plus a point-to-point pipelined data
// network.
//
// The address network gives every coherence request a single global order
// point. That split — a request is *ordered* (ownership of record moves) long
// before its *data* arrives — is the protocol property that creates the
// cyclic-wait danger of the paper's Figure 6 and that TLR's marker/probe
// machinery resolves. The data network carries line data, and also TLR's two
// side-band message types (markers and probes, §3.1.1), which have no
// coherence interactions.
package bus

import (
	"fmt"
	"slices"
	"sync/atomic"

	"tlrsim/internal/fault"
	"tlrsim/internal/memsys"
	"tlrsim/internal/sim"
	"tlrsim/internal/stamp"
)

// Kind enumerates address-network transaction types for the MOESI protocol.
type Kind int

const (
	// GetS requests a readable (shared) copy of a line.
	GetS Kind = iota
	// GetX requests an exclusive, writable copy of a line (rd_X in the paper).
	GetX
	// Upgrade requests write permission for a line already held shared.
	Upgrade
	// WriteBack returns a dirty line to memory on eviction.
	WriteBack

	numKinds = iota
)

func (k Kind) String() string {
	switch k {
	case GetS:
		return "GetS"
	case GetX:
		return "GetX"
	case Upgrade:
		return "Upgrade"
	case WriteBack:
		return "WriteBack"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// MemID is the controller id of the memory/L2 controller on the bus. The
// bus's per-controller tables are slices indexed by id+1, so memory is slot
// 0 and CPU i is slot i+1.
const MemID = -1

// Txn is one address-network transaction. Requests generated from within a
// TLR transaction carry the issuing processor's timestamp (§2.2 step 3);
// requests from outside carry stamp.None().
type Txn struct {
	ID    uint64
	Kind  Kind
	Line  memsys.Addr
	Src   int
	Stamp stamp.Stamp

	// WBData carries the line payload for WriteBack transactions.
	WBData memsys.LineData

	// Ordered is the cycle at which the address bus granted (globally
	// ordered) this transaction; filled by the bus.
	Ordered sim.Time

	// Cancel (WriteBack only) is set by the issuing controller at the
	// write-back's own snoop when the data was superseded (an intervening
	// GetX took ownership of a fresher copy): memory must not apply it.
	Cancel bool

	// Nacked is set at snoop time when the owner refuses the request
	// (NACK-based ownership retention, the §3 alternative to deferral): the
	// transaction is void for every observer and the requester must retry.
	Nacked bool

	// Priority marks a forward-progress escalation: a request NACKed past
	// the pathological threshold reissues with Priority set, and no owner
	// (nor the fault injector) may NACK it again — the owner must resolve
	// it through the deferral/service machinery instead, which guarantees
	// the requester eventually completes.
	Priority bool

	// SrcHolds (Upgrade only) reports whether the requester still held a
	// valid copy of the line at the order point. A false value marks a void
	// upgrade: the copy it meant to promote was already invalidated, the
	// requester will convert to a full GetX, and no other cache may react.
	// Filled by the bus at snoop time so every controller sees one
	// consistent verdict.
	SrcHolds bool

	issued sim.Time

	// refs counts the records that can still reach a pooled transaction
	// (see NewTxn); pooled marks one NewTxn handed out, poisoned one that
	// was released while poisoning is on.
	refs     int32
	pooled   bool
	poisoned bool
}

func (t *Txn) String() string {
	return fmt.Sprintf("txn#%d %s %s from %d %s", t.ID, t.Kind, t.Line, t.Src, t.Stamp)
}

// Snooper is a controller attached to the address network.
type Snooper interface {
	// SnoopOwner is a side-effect-free query asked at snoop time: does this
	// controller currently hold supplier-of-record responsibility for line?
	// (Either it holds the line in an owned state it has not yet passed on,
	// or it has a bus-ordered outstanding request that made it the pending
	// owner.) At most one controller may answer true.
	SnoopOwner(line memsys.Addr) bool
	// SnoopShared is a side-effect-free query: does this controller hold any
	// valid copy of line, or a pending ordered request for it? The result
	// decides whether a memory-supplied GetS fill may install Exclusive.
	SnoopShared(line memsys.Addr) bool
	// SnoopNack asks the supplier of record whether it refuses t (NACK-based
	// ownership retention). Consulted once per transaction, at snoop time,
	// for the owner only; a true result voids the transaction for everyone
	// and the requester retries after a backoff.
	SnoopNack(t *Txn) bool
	// Snoop processes transaction t. owner is the controller that answered
	// SnoopOwner (MemID if none); shared reports whether any controller
	// other than t.Src answered SnoopShared. Every snooper sees every
	// transaction, including its own (requesters learn their order point
	// that way).
	Snoop(t *Txn, owner int, shared bool)
}

// Msg is a point-to-point message on the data network.
type Msg interface{ msgFrom() int }

// DataResp carries line data from a supplier to a requester, completing the
// split transaction begun by Txn ID Req.
type DataResp struct {
	Req    uint64
	Line   memsys.Addr
	Data   memsys.LineData
	From   int
	Shared bool // supplier retained a shared copy (GetS service by an owner)
}

// Marker is TLR's "I am your upstream neighbour" message (§3.1.1): sent in
// response to a request for a block under conflict for which data is not
// provided immediately, so the requester learns whom to probe.
type Marker struct {
	Req  uint64
	Line memsys.Addr
	From int
}

// Probe propagates a conflicting request's timestamp upstream along a
// coherence chain toward the cache that holds valid data, restarting
// lower-priority holders (§3.1.1).
type Probe struct {
	Line  memsys.Addr
	Stamp stamp.Stamp // timestamp of the conflicting (downstream) request
	From  int
}

// Messages implement Msg with pointer receivers so they cross the interface
// without boxing; they are created only by the pooled SendData / SendMarker /
// SendProbe helpers, which recycle each message once delivered.
func (m *DataResp) msgFrom() int { return m.From }
func (m *Marker) msgFrom() int   { return m.From }
func (m *Probe) msgFrom() int    { return m.From }

// Receiver accepts data-network messages.
type Receiver interface {
	Deliver(m Msg)
}

// Config holds interconnect timing parameters (paper Table 2 defaults are in
// the root package's DefaultConfig).
type Config struct {
	SnoopLat       uint64 // address broadcast + snoop resolution latency
	DataLat        uint64 // point-to-point data network latency
	ArbCycles      uint64 // minimum cycles between consecutive grants
	ArbJitter      uint64 // uniform random extra grant delay (0..ArbJitter)
	Occupancy      uint64 // per-endpoint data-network injection spacing
	MaxOutstanding int    // outstanding address transactions (120)
}

// Stats counts interconnect activity for the traffic results in §6.
type Stats struct {
	Txns      [numKinds]uint64 // issued transactions, indexed by Kind
	DataMsgs  uint64
	Markers   uint64
	Probes    uint64
	Nacks     uint64
	ArbStalls uint64 // cycles transactions spent queued for the address bus
}

// Bus is the interconnect: ordered address network + data network.
type Bus struct {
	k   *sim.Kernel
	cfg Config

	// Per-controller tables, indexed by id+1 (memory is slot 0; nil marks
	// an unattached id).
	snoopers []Snooper
	recvs    []Receiver
	sendFree []sim.Time // each endpoint's next free injection cycle

	// order and orderIDs are the snoop dispatch order (ascending CPU ids,
	// memory last) and the id of each entry, so resolveSnoop walks plain
	// slices.
	order    []Snooper
	orderIDs []int

	queue       []*Txn
	nextGrant   sim.Time
	outstanding int
	granting    bool
	nextID      uint64

	// Free lists for recycled data-network messages: a message is reused the
	// moment its delivery event has run, so steady-state traffic allocates
	// nothing.
	freeData    []*DataResp
	freeMarkers []*Marker
	freeProbes  []*Probe
	freeTxns    []*Txn

	// faults, when non-nil, perturbs grant timing and order, forces NACKs,
	// and delays marker/probe delivery — all within what the architecture
	// leaves unspecified. Nil (the default) costs one pointer test per
	// seam.
	faults *fault.Injector

	stats Stats
}

// SetFaults attaches (or with nil detaches) the fault injector.
func (b *Bus) SetFaults(in *fault.Injector) { b.faults = in }

// New returns a bus on kernel k.
func New(k *sim.Kernel, cfg Config) *Bus {
	if cfg.MaxOutstanding <= 0 {
		cfg.MaxOutstanding = 120
	}
	if cfg.ArbCycles == 0 {
		cfg.ArbCycles = 1
	}
	return &Bus{k: k, cfg: cfg}
}

// Attach registers a controller under id for both snooping and data
// delivery. The memory controller attaches as MemID. Dispatch order is
// maintained incrementally as a sorted insert — ascending CPU ids, then
// memory last — rather than rescanning a fixed id range per attach, which
// made machine construction quadratic in noise for the many-tiny-machine
// sweeps (litmus enumeration runs tens of thousands of 2-CPU machines).
func (b *Bus) Attach(id int, s Snooper, r Receiver) {
	if id < MemID {
		panic(fmt.Sprintf("bus: invalid controller id %d", id))
	}
	slot := id + 1
	if slot < len(b.snoopers) && b.snoopers[slot] != nil {
		panic(fmt.Sprintf("bus: duplicate controller id %d", id))
	}
	for len(b.snoopers) <= slot {
		b.snoopers = append(b.snoopers, nil)
		b.recvs = append(b.recvs, nil)
		b.sendFree = append(b.sendFree, 0)
	}
	b.snoopers[slot] = s
	b.recvs[slot] = r
	pos := len(b.orderIDs)
	if id != MemID {
		for i, v := range b.orderIDs {
			if v == MemID || v > id {
				pos = i
				break
			}
		}
	}
	b.order = slices.Insert(b.order, pos, s)
	b.orderIDs = slices.Insert(b.orderIDs, pos, id)
}

// attached reports whether a controller is attached under id.
func (b *Bus) attached(id int) bool {
	slot := id + 1
	return slot >= 0 && slot < len(b.snoopers) && b.snoopers[slot] != nil
}

// Stats returns accumulated interconnect counters.
func (b *Bus) Stats() *Stats { return &b.stats }

// Reset rewinds the interconnect to the state New constructs, keeping the
// attached controllers and the message free lists (pooling is invisible to
// the protocol: a recycled message is field-assigned before every send).
// The bus must be drained — no queued or outstanding transactions, no grant
// in flight — which the machine-level quiescence check guarantees.
func (b *Bus) Reset() {
	if b.outstanding != 0 || len(b.queue) != 0 || b.granting {
		panic("bus: Reset while transactions in flight")
	}
	b.nextGrant = 0
	b.nextID = 0
	clear(b.sendFree)
	b.stats = Stats{}
}

// AdoptState copies src's grant clock, transaction numbering, per-endpoint
// injection times, and stats into b (snapshot restore). Both buses must be
// drained.
func (b *Bus) AdoptState(src *Bus) {
	if b.outstanding != 0 || len(b.queue) != 0 || b.granting ||
		src.outstanding != 0 || len(src.queue) != 0 || src.granting {
		panic("bus: AdoptState while transactions in flight")
	}
	b.nextGrant = src.nextGrant
	b.nextID = src.nextID
	b.sendFree = append(b.sendFree[:0], src.sendFree...)
	b.stats = src.stats
}

// poisonReleased turns released pooled records into tripwires: instead of
// going back on a free list, a released Txn (and a coherence controller's
// released miss record) is filled with garbage and never handed out again,
// so any later use of a stale pointer either sends to a nonexistent
// controller or trips a double-release panic. A debugging aid for the
// pools' lifetime rules; tests switch it on around golden runs.
var poisonReleased atomic.Bool

// PoisonReleased switches release poisoning on or off and returns the
// previous setting.
func PoisonReleased(on bool) bool { return poisonReleased.Swap(on) }

// Poisoning reports whether release poisoning is on.
func Poisoning() bool { return poisonReleased.Load() }

// NewTxn returns a zeroed transaction from the bus's free list. A pooled
// transaction is reference counted: Issue gives the bus the first
// reference, which it drops once the snoop event has run; every record that
// keeps the pointer past that event — a coherence chain entry, a deferred
// payload, a memory-response event — takes its own with Retain and drops it
// with Release. The last Release recycles the transaction. A transaction
// built with a composite literal is never recycled.
func (b *Bus) NewTxn() *Txn {
	if n := len(b.freeTxns); n > 0 {
		t := b.freeTxns[n-1]
		b.freeTxns = b.freeTxns[:n-1]
		*t = Txn{pooled: true}
		return t
	}
	return &Txn{pooled: true}
}

// Retain adds a reference to t.
func (b *Bus) Retain(t *Txn) {
	if t.poisoned {
		panic("bus: Retain of a released transaction")
	}
	t.refs++
}

// Release drops a reference to t, recycling a pooled transaction when it
// was the last.
func (b *Bus) Release(t *Txn) {
	if t.poisoned || t.refs <= 0 {
		panic(fmt.Sprintf("bus: Release of a released transaction (%s)", t))
	}
	t.refs--
	if t.refs > 0 || !t.pooled {
		return
	}
	if Poisoning() {
		*t = Txn{ID: ^uint64(0), Kind: GetX, Line: ^memsys.Addr(0), Src: MemID - 1, poisoned: true}
		return
	}
	b.freeTxns = append(b.freeTxns, t)
}

// Issue queues transaction t for the address network. The bus assigns the
// transaction ID and, at grant time, the global order.
func (b *Bus) Issue(t *Txn) uint64 {
	if t.poisoned {
		panic("bus: Issue of a released transaction")
	}
	t.refs++
	b.nextID++
	t.ID = b.nextID
	t.issued = b.k.Now()
	b.stats.Txns[t.Kind]++
	b.queue = append(b.queue, t)
	b.pump()
	return t.ID
}

// Complete releases an outstanding-transaction slot once the requester has
// fully finished the split transaction (data consumed or no data needed).
func (b *Bus) Complete() {
	if b.outstanding <= 0 {
		panic("bus: Complete without outstanding transaction")
	}
	b.outstanding--
	b.pump()
}

// pump grants the next queued transaction when the bus and an outstanding
// slot are free.
func (b *Bus) pump() {
	if b.granting || len(b.queue) == 0 || b.outstanding >= b.cfg.MaxOutstanding {
		return
	}
	b.granting = true
	at := b.nextGrant
	if now := b.k.Now(); at < now {
		at = now
	}
	if b.cfg.ArbJitter > 0 {
		at += sim.Time(uint64(b.k.Rand().Int63n(int64(b.cfg.ArbJitter + 1))))
	}
	// Injected arbitration delay: grant latency is unspecified, so any
	// finite stall is a legal schedule.
	if d := b.faults.GrantDelay(); d > 0 {
		at += sim.Time(d)
	}
	b.k.AtCall(at, grantEvent, b, nil, 0)
}

// grantEvent and snoopEvent are the pre-bound schedule callbacks
// (sim.Callback) for address-network arbitration and snoop resolution; they
// replace per-grant closure allocations.
func grantEvent(recv, _ any, _ uint64) { recv.(*Bus).grant() }

func snoopEvent(recv, arg any, _ uint64) { recv.(*Bus).resolveSnoop(arg.(*Txn)) }

func (b *Bus) grant() {
	b.granting = false
	if len(b.queue) == 0 || b.outstanding >= b.cfg.MaxOutstanding {
		return
	}
	// Requests are globally ordered only at grant time, so the arbiter may
	// legally pick any queued request; injection exercises non-FIFO orders.
	// The pick is removed by shifting its successors down, so the queue's
	// backing array stays put and Issue's append reuses it.
	i := b.faults.PickGrant(len(b.queue))
	t := b.queue[i]
	n := i + copy(b.queue[i:], b.queue[i+1:])
	b.queue[n] = nil
	b.queue = b.queue[:n]
	b.outstanding++
	t.Ordered = b.k.Now()
	b.stats.ArbStalls += uint64(t.Ordered - t.issued)
	b.nextGrant = b.k.Now() + sim.Time(b.cfg.ArbCycles)

	// Snoop resolution: all controllers observe the transaction SnoopLat
	// cycles after the order point, atomically in one kernel event so the
	// ownership query and the state transitions are mutually consistent.
	b.k.AfterCall(b.cfg.SnoopLat, snoopEvent, b, t, 0)
	b.pump()
}

func (b *Bus) resolveSnoop(t *Txn) {
	if t.Kind == Upgrade {
		if b.attached(t.Src) {
			t.SrcHolds = b.snoopers[t.Src+1].SnoopShared(t.Line)
		}
	}
	owner := MemID
	shared := false
	for i, s := range b.order {
		id := b.orderIDs[i]
		if id == MemID {
			continue
		}
		if owner == MemID && s.SnoopOwner(t.Line) {
			owner = id
		}
		if id != t.Src && !shared && s.SnoopShared(t.Line) {
			shared = true
		}
	}
	if owner != MemID && owner != t.Src && !t.Priority && (t.Kind == GetS || t.Kind == GetX) {
		// A forced NACK is injected under exactly the eligibility condition
		// where the owner itself may refuse, so every snooper handles it
		// through the ordinary NACK-retry path. Priority escalations are
		// exempt from both — that exemption IS the forward-progress
		// guarantee for requests the owner (or injector) would otherwise
		// refuse forever.
		if b.snoopers[owner+1].SnoopNack(t) || b.faults.ForceNack() {
			t.Nacked = true
			b.stats.Nacks++
		}
	}
	for _, s := range b.order {
		s.Snoop(t, owner, shared)
	}
	b.Release(t)
}

// SendData sends a pooled DataResp completing split transaction req. data is
// copied into the message at call time.
func (b *Bus) SendData(to int, req uint64, line memsys.Addr, data *memsys.LineData, from int, shared bool) {
	var m *DataResp
	if n := len(b.freeData); n > 0 {
		m, b.freeData = b.freeData[n-1], b.freeData[:n-1]
	} else {
		m = new(DataResp)
	}
	m.Req, m.Line, m.Data, m.From, m.Shared = req, line, *data, from, shared
	b.stats.DataMsgs++
	b.sendMsg(to, m, 0)
}

// SendMarker sends a pooled Marker for transaction req.
func (b *Bus) SendMarker(to int, req uint64, line memsys.Addr, from int) {
	var m *Marker
	if n := len(b.freeMarkers); n > 0 {
		m, b.freeMarkers = b.freeMarkers[n-1], b.freeMarkers[:n-1]
	} else {
		m = new(Marker)
	}
	m.Req, m.Line, m.From = req, line, from
	b.stats.Markers++
	b.sendMsg(to, m, sim.Time(b.faults.MsgDelay()))
}

// SendProbe sends a pooled Probe carrying the conflicting timestamp ts.
func (b *Bus) SendProbe(to int, line memsys.Addr, ts stamp.Stamp, from int) {
	var m *Probe
	if n := len(b.freeProbes); n > 0 {
		m, b.freeProbes = b.freeProbes[n-1], b.freeProbes[:n-1]
	} else {
		m = new(Probe)
	}
	m.Line, m.Stamp, m.From = line, ts, from
	b.stats.Probes++
	b.sendMsg(to, m, sim.Time(b.faults.MsgDelay()))
}

// sendMsg schedules the delivery of a pooled message, which returns to its
// free list once delivered. extra is injected marker/probe delay
// (message latency is unspecified beyond occupancy spacing, so delivery may
// legally land arbitrarily later; data responses stay on time — the split
// transaction is already accounted against the requester).
func (b *Bus) sendMsg(to int, msg Msg, extra sim.Time) {
	if !b.attached(to) {
		panic(fmt.Sprintf("bus: Send to unknown controller %d", to))
	}
	from := msg.msgFrom() + 1
	depart := b.sendFree[from]
	if now := b.k.Now(); depart < now {
		depart = now
	}
	b.sendFree[from] = depart + sim.Time(b.cfg.Occupancy)
	b.k.AtCall(depart+sim.Time(b.cfg.DataLat)+extra, deliverEvent, b, msg, uint64(to+1))
}

// deliverEvent is the pre-bound delivery callback: recv is the Bus, arg the
// message, n the destination's table slot (id+1). Receivers must not retain
// a message past Deliver: it is recycled for the next send.
func deliverEvent(recv, arg any, n uint64) {
	b := recv.(*Bus)
	msg := arg.(Msg)
	b.recvs[n].Deliver(msg)
	switch v := msg.(type) {
	case *DataResp:
		b.freeData = append(b.freeData, v)
	case *Marker:
		b.freeMarkers = append(b.freeMarkers, v)
	case *Probe:
		b.freeProbes = append(b.freeProbes, v)
	}
}

// Outstanding reports in-flight address transactions (for quiescence checks
// in tests).
func (b *Bus) Outstanding() int { return b.outstanding }

// Queued reports transactions waiting for arbitration.
func (b *Bus) Queued() int { return len(b.queue) }
