package tlrsim_test

// Lifetime gate for the simulator's recycled per-miss records: with release
// poisoning on, a released bus transaction or miss record is filled with
// garbage and never handed out again, and a second release panics. Any
// record still in use after its release would then steer the run into a
// nonexistent controller, a panic, or a different report. The Fig 9 sweep
// (up to TLR-16p, the deepest coherence chains and deferral queues) and the
// contention matrix (NACK retries, aborts, fork groups) must therefore
// reproduce their committed goldens byte for byte.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tlrsim"
	"tlrsim/internal/bus"
)

func TestPooledRecordsNeverReadAfterRelease(t *testing.T) {
	if testing.Short() {
		t.Skip("fig9 and cm sweeps; skipped in -short mode")
	}
	prev := bus.PoisonReleased(true)
	t.Cleanup(func() { bus.PoisonReleased(prev) })

	o := tlrsim.DefaultExperimentOptions()
	o.Ops = 0.25

	o.Seed = 1
	r, err := tlrsim.Fig9(o)
	if err != nil {
		t.Fatal(err)
	}
	all := readGolden(t, "all_seed1_table.golden")
	if !strings.Contains(all, r.Report+"\n") {
		t.Fatalf("fig9 report under poisoning differs from all_seed1_table.golden:\n%s", r.Report)
	}

	o.Seed = tlrsim.DefaultExperimentOptions().Seed
	cm, err := tlrsim.ContentionMatrix(o)
	if err != nil {
		t.Fatal(err)
	}
	name := "cm_seed2002_table.golden"
	if got, want := cm.Report+"\n", readGolden(t, name); got != want {
		t.Fatalf("cm report under poisoning differs from %s; first divergence at byte %d",
			name, firstDiff(got, want))
	}
}

func readGolden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
