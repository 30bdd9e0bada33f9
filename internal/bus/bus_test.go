package bus

import (
	"fmt"
	"testing"

	"tlrsim/internal/memsys"
	"tlrsim/internal/sim"
	"tlrsim/internal/stamp"
)

// fakeCtrl records snoops and messages; owns configurable lines.
type fakeCtrl struct {
	id     int
	owns   map[memsys.Addr]bool
	nacks  bool
	snoops []snoopRec
	msgs   []Msg
}

type snoopRec struct {
	txn    *Txn
	owner  int
	shared bool
}

func newFake(id int) *fakeCtrl { return &fakeCtrl{id: id, owns: map[memsys.Addr]bool{}} }

func (f *fakeCtrl) SnoopOwner(line memsys.Addr) bool  { return f.owns[line] }
func (f *fakeCtrl) SnoopShared(line memsys.Addr) bool { return f.owns[line] }
func (f *fakeCtrl) SnoopNack(t *Txn) bool             { return f.nacks }
func (f *fakeCtrl) Snoop(t *Txn, owner int, shared bool) {
	f.snoops = append(f.snoops, snoopRec{t, owner, shared})
}
func (f *fakeCtrl) Deliver(m Msg) { f.msgs = append(f.msgs, m) }

func testbus(k *sim.Kernel, n int) (*Bus, []*fakeCtrl, *fakeCtrl) {
	b := New(k, Config{SnoopLat: 20, DataLat: 20, ArbCycles: 2, Occupancy: 2, MaxOutstanding: 8})
	ctrls := make([]*fakeCtrl, n)
	for i := range ctrls {
		ctrls[i] = newFake(i)
		b.Attach(i, ctrls[i], ctrls[i])
	}
	mem := newFake(MemID)
	b.Attach(MemID, mem, mem)
	return b, ctrls, mem
}

func TestBroadcastReachesAllSnoopers(t *testing.T) {
	k := sim.New(1)
	b, ctrls, mem := testbus(k, 4)
	b.Issue(&Txn{Kind: GetX, Line: 0x1000, Src: 2, Stamp: stamp.New(1, 2)})
	k.Run()
	for _, c := range append(ctrls, mem) {
		if len(c.snoops) != 1 {
			t.Fatalf("controller %d saw %d snoops, want 1", c.id, len(c.snoops))
		}
		if c.snoops[0].owner != MemID {
			t.Fatalf("owner = %d, want memory", c.snoops[0].owner)
		}
	}
}

func TestOwnerResolution(t *testing.T) {
	k := sim.New(1)
	b, ctrls, mem := testbus(k, 4)
	ctrls[3].owns[0x1000] = true
	b.Issue(&Txn{Kind: GetS, Line: 0x1000, Src: 0})
	k.Run()
	if mem.snoops[0].owner != 3 {
		t.Fatalf("owner = %d, want 3", mem.snoops[0].owner)
	}
}

func TestOwnerPollStopsAtFirst(t *testing.T) {
	// Two claimants would be a protocol bug elsewhere, but the bus picks the
	// lowest id deterministically.
	k := sim.New(1)
	b, ctrls, _ := testbus(k, 4)
	ctrls[1].owns[0x40] = true
	ctrls[2].owns[0x40] = true
	b.Issue(&Txn{Kind: GetS, Line: 0x40, Src: 0})
	k.Run()
	if ctrls[0].snoops[0].owner != 1 {
		t.Fatalf("owner = %d, want 1", ctrls[0].snoops[0].owner)
	}
}

func TestGlobalOrderMatchesIssueOrder(t *testing.T) {
	k := sim.New(1)
	b, ctrls, _ := testbus(k, 2)
	t1 := &Txn{Kind: GetX, Line: 0x40, Src: 0}
	t2 := &Txn{Kind: GetX, Line: 0x80, Src: 1}
	b.Issue(t1)
	b.Issue(t2)
	k.Run()
	if !(t1.Ordered < t2.Ordered) {
		t.Fatalf("order times %d, %d: want strictly increasing", t1.Ordered, t2.Ordered)
	}
	if len(ctrls[0].snoops) != 2 || ctrls[0].snoops[0].txn != t1 || ctrls[0].snoops[1].txn != t2 {
		t.Fatal("snoop order does not match issue order")
	}
}

func TestSnoopLatency(t *testing.T) {
	k := sim.New(1)
	b := New(k, Config{SnoopLat: 20, DataLat: 20, ArbCycles: 1})
	c := newFake(0)
	var snoopAt sim.Time
	b.Attach(0, snoopFunc(func(tx *Txn, owner int, shared bool) { snoopAt = k.Now() }), c)
	tx := &Txn{Kind: GetS, Line: 0x40, Src: 0}
	b.Issue(tx)
	k.Run()
	if snoopAt != tx.Ordered+20 {
		t.Fatalf("snoop at %d, ordered %d, want +20", snoopAt, tx.Ordered)
	}
}

type snoopFunc func(t *Txn, owner int, shared bool)

func (f snoopFunc) SnoopOwner(memsys.Addr) bool          { return false }
func (f snoopFunc) SnoopShared(memsys.Addr) bool         { return false }
func (f snoopFunc) SnoopNack(*Txn) bool                  { return false }
func (f snoopFunc) Snoop(t *Txn, owner int, shared bool) { f(t, owner, shared) }

func TestMaxOutstandingThrottles(t *testing.T) {
	k := sim.New(1)
	b := New(k, Config{SnoopLat: 5, ArbCycles: 1, MaxOutstanding: 2})
	c := newFake(0)
	b.Attach(0, c, c)
	for i := 0; i < 5; i++ {
		b.Issue(&Txn{Kind: GetS, Line: memsys.Addr(i * 64), Src: 0})
	}
	k.Run()
	if len(c.snoops) != 2 {
		t.Fatalf("saw %d snoops with 2 outstanding slots and no Complete, want 2", len(c.snoops))
	}
	// Releasing slots lets the rest through.
	b.Complete()
	b.Complete()
	k.Run()
	if len(c.snoops) != 4 {
		t.Fatalf("saw %d snoops after 2 Completes, want 4", len(c.snoops))
	}
}

func TestCompleteUnderflowPanics(t *testing.T) {
	k := sim.New(1)
	b, _, _ := testbus(k, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Complete with nothing outstanding must panic")
		}
	}()
	b.Complete()
}

func TestDataDelivery(t *testing.T) {
	k := sim.New(1)
	b, ctrls, _ := testbus(k, 2)
	var d memsys.LineData
	d[3] = 77
	b.SendData(1, 9, 0x40, &d, 0, false)
	k.Run()
	if len(ctrls[1].msgs) != 1 {
		t.Fatalf("got %d msgs, want 1", len(ctrls[1].msgs))
	}
	resp := ctrls[1].msgs[0].(*DataResp)
	if resp.Data[3] != 77 || resp.Req != 9 {
		t.Fatal("data payload corrupted")
	}
}

func TestSendOccupancySerialisesPerSource(t *testing.T) {
	k := sim.New(1)
	b := New(k, Config{SnoopLat: 20, DataLat: 10, Occupancy: 4, ArbCycles: 1})
	var arrivals []sim.Time
	r := recvFunc(func(m Msg) { arrivals = append(arrivals, k.Now()) })
	b.Attach(0, newFake(0), r)
	b.Attach(1, newFake(1), recvFunc(func(Msg) {}))
	// Three back-to-back sends from source 1: spaced by occupancy.
	for i := 0; i < 3; i++ {
		b.SendMarker(0, 0, 0x40, 1)
	}
	k.Run()
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	if arrivals[0] != 10 || arrivals[1] != 14 || arrivals[2] != 18 {
		t.Fatalf("arrivals = %v, want [10 14 18]", arrivals)
	}
}

type recvFunc func(Msg)

func (f recvFunc) Deliver(m Msg) { f(m) }

func TestStatsCounters(t *testing.T) {
	k := sim.New(1)
	b, _, _ := testbus(k, 2)
	b.Issue(&Txn{Kind: GetX, Line: 0x40, Src: 0})
	b.Issue(&Txn{Kind: GetS, Line: 0x80, Src: 1})
	b.SendData(1, 0, 0, &memsys.LineData{}, 0, false)
	b.SendMarker(1, 0, 0, 0)
	b.SendProbe(0, 0, stamp.Stamp{}, 1)
	k.Run()
	s := b.Stats()
	if s.Txns[GetX] != 1 || s.Txns[GetS] != 1 || s.DataMsgs != 1 || s.Markers != 1 || s.Probes != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDeterministicWithJitter(t *testing.T) {
	run := func() []sim.Time {
		k := sim.New(99)
		b := New(k, Config{SnoopLat: 20, ArbCycles: 2, ArbJitter: 5})
		c := newFake(0)
		b.Attach(0, c, c)
		txns := make([]*Txn, 10)
		for i := range txns {
			txns[i] = &Txn{Kind: GetS, Line: memsys.Addr(i * 64), Src: 0}
			b.Issue(txns[i])
		}
		k.Run()
		out := make([]sim.Time, len(txns))
		for i, tx := range txns {
			out[i] = tx.Ordered
		}
		return out
	}
	a, bseq := run(), run()
	for i := range a {
		if a[i] != bseq[i] {
			t.Fatalf("jittered grants not reproducible: %v vs %v", a, bseq)
		}
	}
}

func TestDuplicateAttachPanics(t *testing.T) {
	for _, id := range []int{0, MemID} {
		k := sim.New(1)
		b, _, _ := testbus(k, 1)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("duplicate attach of %d must panic", id)
				}
			}()
			b.Attach(id, newFake(id), newFake(id))
		}()
	}
}

func TestWriteBackCarriesData(t *testing.T) {
	k := sim.New(1)
	b, ctrls, mem := testbus(k, 2)
	var d memsys.LineData
	d[0] = 123
	b.Issue(&Txn{Kind: WriteBack, Line: 0x40, Src: 0, WBData: d, Stamp: stamp.None()})
	k.Run()
	if mem.snoops[0].txn.WBData[0] != 123 {
		t.Fatal("writeback data lost")
	}
	_ = ctrls
}

func TestNackPollVoidsTransaction(t *testing.T) {
	k := sim.New(1)
	b, ctrls, mem := testbus(k, 3)
	ctrls[2].owns[0x40] = true
	ctrls[2].nacks = true
	tx := &Txn{Kind: GetX, Line: 0x40, Src: 0}
	b.Issue(tx)
	k.Run()
	if !tx.Nacked {
		t.Fatal("owner refusal should mark the transaction nacked")
	}
	if b.Stats().Nacks != 1 {
		t.Fatal("nack not counted")
	}
	_ = mem
}

func TestNackNotConsultedForOwnRequests(t *testing.T) {
	k := sim.New(1)
	b, ctrls, _ := testbus(k, 2)
	ctrls[0].owns[0x40] = true
	ctrls[0].nacks = true
	tx := &Txn{Kind: GetX, Line: 0x40, Src: 0} // requester is the owner
	b.Issue(tx)
	k.Run()
	if tx.Nacked {
		t.Fatal("a controller must not nack its own request")
	}
}

func TestSendToUnknownIDPanics(t *testing.T) {
	// 1 is a hole between attached ids, 7 lies past the table, -2 below it.
	for _, to := range []int{1, 7, -2} {
		k := sim.New(1)
		b := New(k, Config{SnoopLat: 20, DataLat: 20, ArbCycles: 1})
		b.Attach(MemID, newFake(MemID), newFake(MemID))
		b.Attach(0, newFake(0), newFake(0))
		b.Attach(2, newFake(2), newFake(2))
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Send to unknown controller %d must panic", to)
				}
			}()
			b.SendMarker(to, 0, 0, 0)
		}()
	}
}

// TestMemSlotRoundTrips: memory is slot 0 of the dense tables. Its
// injection-port state must survive AdoptState and clear on Reset like any
// CPU's.
func TestMemSlotRoundTrips(t *testing.T) {
	build := func() (*sim.Kernel, *Bus, *[]sim.Time) {
		k := sim.New(1)
		b := New(k, Config{SnoopLat: 20, DataLat: 10, Occupancy: 4, ArbCycles: 1})
		var arrivals []sim.Time
		b.Attach(0, newFake(0), recvFunc(func(Msg) { arrivals = append(arrivals, k.Now()) }))
		b.Attach(MemID, newFake(MemID), newFake(MemID))
		return k, b, &arrivals
	}
	ksrc, src, _ := build()
	src.SendMarker(0, 0, 0, MemID) // memory's port is busy until cycle 4
	ksrc.Run()

	k, dst, arrivals := build()
	dst.AdoptState(src)
	dst.SendMarker(0, 0, 0, MemID)
	k.Run()
	if got := *arrivals; len(got) != 1 || got[0] != 14 {
		t.Fatalf("adopted memory port: arrivals %v, want [14]", got)
	}

	dst.Reset()
	k.Reset(1)
	*arrivals = nil
	dst.SendMarker(0, 0, 0, MemID)
	k.Run()
	if got := *arrivals; len(got) != 1 || got[0] != 10 {
		t.Fatalf("reset memory port: arrivals %v, want [10]", got)
	}
}

func TestTxnPoolRecycles(t *testing.T) {
	k := sim.New(1)
	b, _, _ := testbus(k, 2)
	tx := b.NewTxn()
	tx.Kind, tx.Line, tx.Src = GetS, 0x40, 0
	b.Issue(tx)
	b.Retain(tx) // a record that outlives the snoop
	k.Run()
	if got := b.NewTxn(); got == tx {
		t.Fatal("a retained transaction was recycled")
	}
	b.Release(tx)
	if got := b.NewTxn(); got != tx || got.ID != 0 || got.Line != 0 {
		t.Fatal("the released transaction was not recycled zeroed")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("releasing an unreferenced transaction must panic")
			}
		}()
		b.Release(tx)
	}()

	// Literal transactions are never pooled.
	lit := &Txn{Kind: GetS, Line: 0x80, Src: 1}
	b.Issue(lit)
	k.Run()
	if b.NewTxn() == lit {
		t.Fatal("a literal transaction was recycled")
	}
}

func TestTxnPoisoning(t *testing.T) {
	prev := PoisonReleased(true)
	defer PoisonReleased(prev)
	k := sim.New(1)
	b, _, _ := testbus(k, 2)
	tx := b.NewTxn()
	tx.Kind, tx.Line, tx.Src = GetS, 0x40, 0
	b.Issue(tx)
	k.Run()
	if b.NewTxn() == tx {
		t.Fatal("a poisoned transaction was handed out again")
	}
	for name, use := range map[string]func(){
		"Issue":   func() { b.Issue(tx) },
		"Retain":  func() { b.Retain(tx) },
		"Release": func() { b.Release(tx) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s of a poisoned transaction must panic", name)
				}
			}()
			use()
		}()
	}
}

// nopSnooper is a snooper whose queries cost nothing, so the benchmark
// measures the bus's own dispatch.
type nopSnooper struct{}

func (nopSnooper) SnoopOwner(memsys.Addr) bool  { return false }
func (nopSnooper) SnoopShared(memsys.Addr) bool { return false }
func (nopSnooper) SnoopNack(*Txn) bool          { return false }
func (nopSnooper) Snoop(*Txn, int, bool)        {}
func (nopSnooper) Deliver(Msg)                  {}

// BenchmarkResolveSnoop measures one snoop resolution — owner and sharer
// polls plus the broadcast — across P CPU controllers and memory.
func BenchmarkResolveSnoop(b *testing.B) {
	for _, procs := range []int{4, 16} {
		b.Run(fmt.Sprintf("P=%d", procs), func(b *testing.B) {
			bus := New(sim.New(1), Config{SnoopLat: 20, DataLat: 20, ArbCycles: 1})
			for i := 0; i < procs; i++ {
				bus.Attach(i, nopSnooper{}, nopSnooper{})
			}
			bus.Attach(MemID, nopSnooper{}, nopSnooper{})
			tx := &Txn{Kind: GetX, Line: 0x40, Src: 1}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tx.refs = 1 // the reference Issue would hold
				bus.resolveSnoop(tx)
			}
		})
	}
}
