package tlrsim_test

// Gates for the contention-management seam:
//
//  1. Golden determinism: the -experiment cm matrix report (table and CSV)
//     is byte-identical to the committed golden at the standard seed, at any
//     Jobs level (regenerate with -update-goldens, shared with
//     equivalence_test.go).
//  2. Policy equivalence: ExperimentOptions.CM = CMTimestamp (what the CLI's
//     `-cm timestamp` sets) reproduces the default-options report
//     byte-for-byte — the seam's zero-cost guarantee, stated against the
//     experiment that exercises the most protocol surface.
//  3. Policies are not aliases: under high conflict each non-default policy
//     must produce a report that differs from the paper's — otherwise the
//     matrix compares a policy against itself.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tlrsim"
)

func TestContentionMatrixEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix sweep; skipped in -short mode")
	}
	o := tlrsim.DefaultExperimentOptions()
	o.Ops = 0.25
	for _, format := range []string{"table", "csv"} {
		format := format
		t.Run(format, func(t *testing.T) {
			t.Parallel()
			r, err := tlrsim.ContentionMatrix(o)
			if err != nil {
				t.Fatal(err)
			}
			got := r.Report + "\n"
			if format == "csv" {
				got = r.CSV()
			}
			golden := filepath.Join("testdata", fmt.Sprintf("cm_seed%d_%s.golden", o.Seed, format))
			if *updateGoldens {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update-goldens to create): %v", err)
			}
			if got != string(want) {
				t.Fatalf("output differs from %s (len got %d, want %d); first divergence at byte %d",
					golden, len(got), len(want), firstDiff(got, string(want)))
			}
		})
	}
}

// TestTimestampPolicyIsDefault pins the seam's central promise: selecting
// the timestamp policy explicitly (the `-cm timestamp` path) is the default,
// byte for byte. Fig9 is the highest-conflict sweep — five schemes including
// both eliding ablations — so any decision the seam moved would shift it.
func TestTimestampPolicyIsDefault(t *testing.T) {
	o := tlrsim.DefaultExperimentOptions()
	o.Ops = 0.1
	base, err := tlrsim.Fig9(o)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := tlrsim.ParseCM("timestamp")
	if err != nil {
		t.Fatal(err)
	}
	o.CM = cm
	explicit, err := tlrsim.Fig9(o)
	if err != nil {
		t.Fatal(err)
	}
	if base.Report != explicit.Report {
		t.Fatalf("-cm timestamp diverged from the default at byte %d",
			firstDiff(base.Report, explicit.Report))
	}
}

// TestNonDefaultPoliciesDiverge guards against a silently disconnected seam:
// under the high-conflict single counter every non-default policy must
// change the TLR sweep's report.
func TestNonDefaultPoliciesDiverge(t *testing.T) {
	o := tlrsim.DefaultExperimentOptions()
	o.Ops = 0.1
	base, err := tlrsim.Fig9(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, cm := range tlrsim.CMs() {
		if cm == tlrsim.CMTimestamp {
			continue
		}
		o.CM = cm
		r, err := tlrsim.Fig9(o)
		if err != nil {
			t.Fatalf("%v: %v", cm, err)
		}
		if r.Report == base.Report {
			t.Errorf("%v: report identical to the timestamp policy; the seam is not threaded", cm)
		}
	}
}

// TestContentionMatrixIgnoresCM: the matrix enumerates the policies itself,
// so a -cm selection must not leak into any of its columns — the timestamp
// column runs the timestamp policy whatever ExperimentOptions.CM says.
func TestContentionMatrixIgnoresCM(t *testing.T) {
	o := tlrsim.DefaultExperimentOptions()
	o.Ops, o.AppProcs = 0.02, 4
	base, err := tlrsim.ContentionMatrix(o)
	if err != nil {
		t.Fatal(err)
	}
	o.CM = tlrsim.CMKarma
	karma, err := tlrsim.ContentionMatrix(o)
	if err != nil {
		t.Fatal(err)
	}
	if karma.Report != base.Report {
		t.Fatalf("-cm karma changed the matrix at byte %d:\n%s\nwant:\n%s",
			firstDiff(karma.Report, base.Report), karma.Report, base.Report)
	}
}
