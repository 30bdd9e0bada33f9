package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime/debug"
	"strings"

	"tlrsim/internal/bus"
	"tlrsim/internal/cache"
	"tlrsim/internal/litmus"
	"tlrsim/internal/memsys"
	"tlrsim/internal/proc"
	"tlrsim/internal/stats"
)

// litmusGCPercent is the collector setting litmus.Check applies while it
// sweeps; the count pass and the replay run under it too.
const litmusGCPercent = 600

// litmusSweeps is a set of containment sweeps over one shape: each sweep is
// one litmus.Check call over its seeds, under litmus.DefaultSchemes, and one
// job of the batch.
type litmusSweeps struct {
	shape  litmus.Shape
	sweeps [][]int64
	// reports holds each sweep's report from the latest round.
	reports []*litmus.Report
}

func newLitmusSweeps(shape litmus.Shape, sweeps ...[]int64) *litmusSweeps {
	return &litmusSweeps{shape: shape, sweeps: sweeps, reports: make([]*litmus.Report, len(sweeps))}
}

func (l *litmusSweeps) tasks() []task {
	ts := make([]task, len(l.sweeps))
	for i, seeds := range l.sweeps {
		ts[i] = task{
			name: fmt.Sprintf("litmus %d×%d×≤%d seeds=%v", l.shape.CPUs, l.shape.Locs, l.shape.MaxOps, seeds),
			jobs: 1,
			run: func(workers int, done func(string, *stats.Run)) (string, int, error) {
				rep := litmus.Check(litmus.Options{Shape: l.shape, Seeds: seeds, Jobs: workers, MaxDivergences: math.MaxInt})
				done("", nil)
				l.reports[i] = rep
				return renderLitmus(rep), min(failedPrograms(rep), 1), nil
			},
		}
	}
	return ts
}

// setup is the work litmus.Check does before its first program: enumerating
// the shape.
func (l *litmusSweeps) setup() { litmus.Enumerate(l.shape) }

// renderLitmus renders a Check report as cmd/tlrlitmus summarises it, with
// every divergence.
func renderLitmus(r *litmus.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "programs: %d raw tuples, %d scheme-sensitive, %d canonical\n",
		r.EnumStats.Raw, r.EnumStats.AfterFilters, r.EnumStats.Canonical)
	fmt.Fprintf(&b, "runs: %d machine runs, %d reference outcomes, %d observed outcomes\n",
		r.Runs, r.RefOutcomes, r.ObservedOutcomes)
	fmt.Fprintf(&b, "divergences: %d\n", r.TotalDivergences)
	for _, d := range r.Divergences {
		fmt.Fprintln(&b, d)
	}
	return b.String()
}

// failedPrograms counts the programs with at least one divergence.
func failedPrograms(r *litmus.Report) int {
	progs := map[string]bool{}
	for _, d := range r.Divergences {
		progs[d.Prog.String()] = true
	}
	return len(progs)
}

// litmusTotals are the counts a Check report carries, summed over sweeps.
type litmusTotals struct {
	programs, runs, refOutcomes, observed, divergences int
}

func (t *litmusTotals) add(o litmusTotals) {
	t.programs += o.programs
	t.runs += o.runs
	t.refOutcomes += o.refOutcomes
	t.observed += o.observed
	t.divergences += o.divergences
}

// reported sums the latest round's Check reports.
func (l *litmusSweeps) reported() litmusTotals {
	var t litmusTotals
	for _, r := range l.reports {
		t.add(litmusTotals{r.Programs, r.Runs, r.RefOutcomes, r.ObservedOutcomes, r.TotalDivergences})
	}
	return t
}

// litmusMachineConfig is the machine litmus.Runner builds for a program: the
// Table 2 baseline shrunk for micro-programs, with the TSO store buffer and
// litmus.DefaultPerturb's start jitter. The runner does not expose its
// machines, so the count pass builds the same machine to read simulated
// cycles and layer counters; the traced run checks that both produce the
// same outcome for every run.
func litmusMachineConfig(cpus int, scheme proc.Scheme, seed int64) proc.Config {
	cfg := proc.BaselineConfig(cpus, scheme, seed)
	cfg.Coherence.Cache = cache.Config{SizeBytes: 2048, Ways: 2, VictimEntries: 4}
	cfg.Coherence.Bus = bus.Config{
		SnoopLat: 20, DataLat: 20, ArbCycles: 2, Occupancy: 2,
		MaxOutstanding: 32, ArbJitter: litmus.DefaultPerturb.ArbJitter,
	}
	cfg.Coherence.WriteBufferLines = 16
	cfg.Coherence.StoreBufferEntries = 8
	cfg.MaxEvents = 250_000
	cfg.StartJitter = litmus.DefaultPerturb.StartJitter
	return cfg
}

// runLitmusMachine runs one program on m and returns its outcome.
func runLitmusMachine(m *proc.Machine, p litmus.Program) (string, error) {
	lock := m.NewLock()
	locs := make([]memsys.Addr, p.NumLocs)
	for i := range locs {
		locs[i] = m.Alloc.PaddedWord()
	}
	threads := make([]proc.LitmusThread, len(p.Threads))
	for ti, t := range p.Threads {
		ops := make([]proc.LitmusOp, len(t.Ops))
		for j, o := range t.Ops {
			ops[j] = proc.LitmusOp{IsLoad: o.Kind == litmus.Load, Addr: locs[o.Loc], Val: litmus.StoreVal(ti, j)}
		}
		threads[ti] = proc.LitmusThread{Ops: ops, CritLo: int(t.CritLo), CritHi: int(t.CritHi)}
	}
	loads, err := m.RunLitmus(lock, threads)
	if err != nil {
		return "", err
	}
	if v := m.Sys.ArchWord(lock.Addr); v != 0 {
		return "", fmt.Errorf("lock word left %d after completion", v)
	}
	return m.LitmusOutcome(loads, locs), nil
}

// outcomeHashes fingerprints, per program, the outcome of every
// (sweep, scheme, seed) run in order; a failed run hashes as its error text.
type outcomeHashes []uint64

// litmusPass runs every program of every sweep on closed-loop workers, under
// the GC setting Check applies. run executes one machine run on a worker and
// returns its outcome; afterProgram, when non-nil, is called once per program
// and sweep with the outcomes that sweep observed, in scheme order.
func (l *litmusSweeps) litmusPass(progs []litmus.Program, workers int,
	run func(worker int, p litmus.Program, scheme proc.Scheme, seed int64) (string, error),
	afterProgram func(worker int, p litmus.Program, outs []string)) (outcomeHashes, litmusTotals) {
	defer debug.SetGCPercent(debug.SetGCPercent(litmusGCPercent))
	hashes := make(outcomeHashes, len(progs))
	tots := make([]litmusTotals, workers)
	// A failed run is a divergence to count, not an error that stops the pass.
	_ = closedLoop(len(progs), workers, func(wi, i int) error {
		h := fnv.New64a()
		for _, seeds := range l.sweeps {
			tots[wi].programs++
			var outs []string
			for _, scheme := range litmus.DefaultSchemes {
				seen := map[string]bool{}
				for _, seed := range seeds {
					out, err := run(wi, progs[i], scheme, seed)
					tots[wi].runs++
					if err != nil {
						tots[wi].divergences++
						out = "error: " + err.Error()
					} else {
						outs = append(outs, out)
						if !seen[out] {
							seen[out] = true
							tots[wi].observed++
						}
					}
					fmt.Fprintf(h, "%s\n", out)
				}
			}
			if afterProgram != nil {
				afterProgram(wi, progs[i], outs)
			}
		}
		hashes[i] = h.Sum64()
		return nil
	})
	var t litmusTotals
	for _, x := range tots {
		t.add(x)
	}
	return hashes, t
}

// countPass runs every machine of the sweeps directly on proc and sums the
// simulated cycles and layer counters, timing machine construction and
// reset. Its runs and observed outcomes must equal the Check reports'.
func (l *litmusSweeps) countPass(workers int) (outcomeHashes, spans, counts, error) {
	progs, _ := litmus.Enumerate(l.shape)
	pools := make([]machinePool, workers)
	sps := make([]spans, workers)
	cnts := make([]counts, workers)
	for i := range pools {
		pools[i], sps[i] = machinePool{}, spans{}
	}
	hashes, got := l.litmusPass(progs, workers, func(wi int, p litmus.Program, scheme proc.Scheme, seed int64) (string, error) {
		m := pools[wi].acquire(litmusMachineConfig(len(p.Threads), scheme, seed), sps[wi])
		out, err := runLitmusMachine(m, p)
		if err != nil {
			return "", err // an errored machine is not quiescent: drop it
		}
		cnts[wi].addMachine(m)
		pools[wi].release(m)
		return out, nil
	}, nil)
	want := l.reported()
	if got.programs != want.programs || got.runs != want.runs || got.observed != want.observed {
		return nil, nil, counts{}, fmt.Errorf("litmus count pass: %d programs, %d runs, %d outcomes; Check reported %d, %d, %d",
			got.programs, got.runs, got.observed, want.programs, want.runs, want.observed)
	}
	sp, cnt := spans{}, counts{}
	for i := range sps {
		sp.merge(sps[i])
		cnt.add(cnts[i])
	}
	return hashes, sp, cnt, nil
}

// replay re-runs the sweeps through the litmus package's public steps —
// Enumerate, ReferenceOutcomes, Runner.Run per (scheme, seed) and
// CheckOutcomes — timing each. Its totals must equal the Check reports', and
// its outcomes those of the count pass.
func (l *litmusSweeps) replay(want outcomeHashes, workers int) (spans, error) {
	sp := spans{}
	end := sp.time("litmus.enumerate")
	progs, _ := litmus.Enumerate(l.shape)
	end()
	runners := make([]*litmus.Runner, workers)
	sps := make([]spans, workers)
	extra := make([]litmusTotals, workers) // reference outcomes and escapes
	for i := range runners {
		runners[i], sps[i] = litmus.NewRunner(), spans{}
	}
	hashes, got := l.litmusPass(progs, workers, func(wi int, p litmus.Program, scheme proc.Scheme, seed int64) (string, error) {
		defer sps[wi].time("litmus.machine")()
		return runners[wi].Run(p, scheme, seed, litmus.DefaultPerturb)
	}, func(wi int, p litmus.Program, outs []string) {
		end := sps[wi].time("litmus.reference")
		extra[wi].refOutcomes += len(litmus.ReferenceOutcomes(p))
		end()
		end = sps[wi].time("litmus.check")
		extra[wi].divergences += len(litmus.CheckOutcomes(p, outs))
		end()
	})
	for i := range sps {
		sp.merge(sps[i])
		got.add(extra[i])
	}
	if rep := l.reported(); got != rep {
		return nil, fmt.Errorf("litmus replay: got %+v, Check reported %+v", got, rep)
	}
	for i := range hashes {
		if hashes[i] != want[i] {
			return nil, fmt.Errorf("litmus replay: program %s: outcomes differ between litmus.Runner and the count pass", progs[i])
		}
	}
	return sp, nil
}
