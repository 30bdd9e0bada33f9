package sim

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestEmptyKernel(t *testing.T) {
	k := New(1)
	if k.Step() {
		t.Fatal("Step on empty kernel should return false")
	}
	if k.Now() != 0 {
		t.Fatalf("Now = %d, want 0", k.Now())
	}
}

func TestEventOrderByTime(t *testing.T) {
	k := New(1)
	var got []int
	k.At(30, func() { got = append(got, 3) })
	k.At(10, func() { got = append(got, 1) })
	k.At(20, func() { got = append(got, 2) })
	k.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if k.Now() != 30 {
		t.Fatalf("Now = %d, want 30", k.Now())
	}
}

func TestSameCycleFIFO(t *testing.T) {
	k := New(1)
	var got []int
	for i := 0; i < 100; i++ {
		k.At(5, func() { got = append(got, i) })
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-cycle events not FIFO at %d: %v", i, got[:i+1])
		}
	}
}

func TestAfterRelative(t *testing.T) {
	k := New(1)
	var at Time
	k.At(100, func() {
		k.After(7, func() { at = k.Now() })
	})
	k.Run()
	if at != 107 {
		t.Fatalf("After fired at %d, want 107", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := New(1)
	k.At(50, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		k.At(10, func() {})
	})
	k.Run()
}

func TestNestedScheduling(t *testing.T) {
	k := New(1)
	count := 0
	var step func()
	step = func() {
		count++
		if count < 1000 {
			k.After(1, step)
		}
	}
	k.After(1, step)
	k.Run()
	if count != 1000 {
		t.Fatalf("count = %d, want 1000", count)
	}
	if k.Now() != 1000 {
		t.Fatalf("Now = %d, want 1000", k.Now())
	}
	if k.Fired() != 1000 {
		t.Fatalf("Fired = %d, want 1000", k.Fired())
	}
}

func TestRunUntil(t *testing.T) {
	k := New(1)
	n := 0
	for i := 1; i <= 10; i++ {
		k.At(Time(i*10), func() { n++ })
	}
	ok := k.RunUntil(func() bool { return n >= 5 })
	if !ok || n != 5 {
		t.Fatalf("RunUntil stopped at n=%d ok=%v, want n=5 ok=true", n, ok)
	}
	if k.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5", k.Pending())
	}
	// An unsatisfiable predicate drains the queue and reports false.
	if k.RunUntil(func() bool { return false }) {
		t.Fatal("RunUntil with false predicate should report false after drain")
	}
}

func TestRunLimit(t *testing.T) {
	k := New(1)
	var step func()
	step = func() { k.After(1, step) } // infinite chain
	k.After(1, step)
	if k.RunLimit(100) {
		t.Fatal("RunLimit should report false on an infinite event chain")
	}
	k2 := New(1)
	k2.At(1, func() {})
	if !k2.RunLimit(100) {
		t.Fatal("RunLimit should report true when the queue drains")
	}
}

func TestDeterministicRandomStream(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Uint64() != b.Rand().Uint64() {
			t.Fatal("same seed must give identical streams")
		}
	}
	c := New(43)
	same := true
	for i := 0; i < 10; i++ {
		if New(42).Rand().Uint64() != c.Rand().Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should give different streams")
	}
}

// drawSeq takes a mix of draws from k's stream (Uint64 takes the Source64
// path).
func drawSeq(k *Kernel) []uint64 {
	var out []uint64
	for i := 0; i < 20; i++ {
		out = append(out, uint64(k.Rand().Int63n(1000)), k.Rand().Uint64())
	}
	return out
}

// readSeq is drawSeq led by a Read, which draws through rand.Rand's
// buffered read position.
func readSeq(k *Kernel) []uint64 {
	var buf [3]byte
	k.Rand().Read(buf[:])
	return append([]uint64{uint64(buf[0]) | uint64(buf[1])<<8 | uint64(buf[2])<<16}, drawSeq(k)...)
}

// A reused kernel reseeds its kept source: the draws after Reset(s) equal
// those of New(s), and resetting and drawing again allocates nothing.
func TestResetReseedsRandomStream(t *testing.T) {
	want := readSeq(New(9))
	k := New(1)
	readSeq(k) // leaves rand.Rand part-way through a buffered read
	k.Reset(9)
	if got := readSeq(k); !reflect.DeepEqual(got, want) {
		t.Fatalf("draws after Reset(9) = %v, want New(9)'s %v", got, want)
	}
	if n := testing.AllocsPerRun(100, func() {
		k.Reset(9)
		k.Rand().Int63()
	}); n != 0 {
		t.Errorf("Reset then Rand allocates %.1f objects, want 0", n)
	}
}

// AdoptState continues the source kernel's stream from its draw count, on
// a kernel that has drawn from a stream of its own; a source reset after
// its draws has none left to replay.
func TestAdoptStateRandomStream(t *testing.T) {
	ref := New(5)
	drawSeq(ref)
	want := drawSeq(ref)

	src := New(5)
	drawSeq(src)
	dst := New(77)
	drawSeq(dst)
	dst.AdoptState(src)
	if got := drawSeq(dst); !reflect.DeepEqual(got, want) {
		t.Fatalf("draws after AdoptState = %v, want %v", got, want)
	}

	src.Reset(6)
	dst.AdoptState(src)
	if got, want := drawSeq(dst), drawSeq(New(6)); !reflect.DeepEqual(got, want) {
		t.Fatalf("draws after AdoptState of a reset kernel = %v, want New(6)'s %v", got, want)
	}
}

// Property: for any set of (time, id) pairs, execution order is sorted by
// time with schedule order breaking ties.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(times []uint16) bool {
		if len(times) == 0 {
			return true
		}
		k := New(7)
		type rec struct {
			at  Time
			seq int
		}
		var got []rec
		for i, tm := range times {
			i, at := i, Time(tm)
			k.At(at, func() { got = append(got, rec{at, i}) })
		}
		k.Run()
		if len(got) != len(times) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
			if got[i].at == got[i-1].at && got[i].seq < got[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
