package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		name  string
		stack []string // innermost first
		want  string
	}{
		{"simulator leaf", []string{
			"tlrsim/internal/bus.(*Bus).resolveSnoop",
			"tlrsim/internal/sim.(*Kernel).Step",
		}, "bus"},
		{"runtime frames go to the nearest simulator caller", []string{
			"runtime.mallocgc", "runtime.newobject",
			"tlrsim/internal/coherence.(*Controller).issue",
			"tlrsim/internal/sim.(*Kernel).Step",
		}, "coherence"},
		{"channel handoff from a workload thread", []string{
			"runtime.chansend", "runtime.chansend1",
			"tlrsim/internal/proc.(*TC).do",
			"tlrsim/internal/workloads.(*SingleCounter).Program.func1",
		}, "proc"},
		{"inlined closure", []string{
			"tlrsim/internal/proc.NewMachine.func1",
		}, "proc"},
		{"background GC", []string{
			"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2",
			"runtime.systemstack", "runtime.gcBgMarkWorker",
		}, bucketGC},
		{"GC assist is the allocating caller's", []string{
			"runtime.gcAssistAlloc", "runtime.mallocgc",
			"tlrsim/internal/cache.(*Cache).Insert",
		}, "cache"},
		{"goroutine switch on the scheduler stack", []string{
			"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall",
		}, "proc"},
		{"everything else", []string{
			"main.runTask", "main.runBatch.func1",
		}, bucketOther},
		{"empty stack", nil, bucketOther},
		{"a same-named prefix is not a GC root", []string{
			"runtime.bgsweepExtra",
		}, bucketOther},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("%s: bucketOf = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestInternalPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"tlrsim/internal/bus.(*Bus).resolveSnoop": "bus",
		"tlrsim/internal/litmus.Check":            "litmus",
		"tlrsim/internal/x/y.F.func2":             "x/y",
		"tlrsim/internal/z":                       "z",
	} {
		if got, ok := internalPackage(fn); !ok || got != want {
			t.Errorf("internalPackage(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
	if _, ok := internalPackage("tlrsim.Fig8"); ok {
		t.Error("the root package is not an internal layer")
	}
}

// Minimal protobuf encoding for a synthetic profile.
func pbVarint(b []byte, x uint64) []byte {
	for x >= 0x80 {
		b = append(b, byte(x)|0x80)
		x >>= 7
	}
	return append(b, byte(x))
}

func pbField(b []byte, num int, payload []byte) []byte {
	b = pbVarint(b, uint64(num)<<3|2)
	b = pbVarint(b, uint64(len(payload)))
	return append(b, payload...)
}

func pbUint(b []byte, num int, x uint64) []byte {
	return pbVarint(pbVarint(b, uint64(num)<<3), x)
}

func pbPacked(xs ...uint64) []byte {
	var b []byte
	for _, x := range xs {
		b = pbVarint(b, x)
	}
	return b
}

func TestDecodeSyntheticProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "tlrsim/internal/bus.(*Bus).resolveSnoop",
		"runtime.mallocgc", "tlrsim/internal/cache.(*Cache).Insert", "runtime.gcBgMarkWorker"}
	var p []byte
	// Samples: {loc 1} x3, {loc 2 (two inlined lines)} x2 with unpacked
	// values, {loc 3} x5.
	p = pbField(p, 2, pbField(pbField(nil, 1, pbPacked(1)), 2, pbPacked(3, 30_000_000)))
	sample2 := pbUint(pbUint(pbField(nil, 1, pbPacked(2)), 2, 2), 2, 20_000_000)
	p = pbField(p, 2, sample2)
	p = pbField(p, 2, pbField(pbField(nil, 1, pbPacked(3)), 2, pbPacked(5, 50_000_000)))
	line := func(fn uint64) []byte { return pbUint(nil, 1, fn) }
	p = pbField(p, 4, pbField(pbUint(nil, 1, 1), 4, line(10)))
	p = pbField(p, 4, pbField(pbField(pbUint(nil, 1, 2), 4, line(11)), 4, line(12)))
	p = pbField(p, 4, pbField(pbUint(nil, 1, 3), 4, line(13)))
	for id, name := range map[uint64]uint64{10: 3, 11: 4, 12: 5, 13: 6} {
		p = pbField(p, 5, pbUint(pbUint(nil, 1, id), 2, name))
	}
	for _, s := range strs {
		p = pbField(p, 6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	for name, data := range map[string][]byte{"raw": p, "gzip": gz.Bytes()} {
		s, err := bucketProfile(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.total != 10 {
			t.Errorf("%s: total = %d samples, want 10", name, s.total)
		}
		want := map[string]int64{"bus": 3, "cache": 2, bucketGC: 5}
		for b, n := range want {
			if s.samples[b] != n {
				t.Errorf("%s: bucket %s = %d samples, want %d", name, b, s.samples[b], n)
			}
		}
		sum := 0.0
		for _, b := range s.sorted() {
			sum += s.frac(b)
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("%s: shares sum to %v, want 1", name, sum)
		}
	}
	if _, err := decodeProfile(p[:len(p)-3]); err == nil {
		t.Error("a truncated profile decoded without error")
	}
}

// spin burns CPU in a recognisable frame.
//
//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; {
		n++
	}
	return n
}

func TestDecodeRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, st := range stacks {
		for _, fn := range st.frames {
			if fn == "tlrsim/perfbench.spin" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no sample in spin among %d stacks", len(stacks))
	}
}
