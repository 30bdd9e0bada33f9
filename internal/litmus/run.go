package litmus

import (
	"fmt"

	"tlrsim/internal/bus"
	"tlrsim/internal/cache"
	"tlrsim/internal/core"
	"tlrsim/internal/fault"
	"tlrsim/internal/memsys"
	"tlrsim/internal/proc"
)

// Perturb is the scheduling perturbation applied to a machine run. Litmus
// programs issue no workload randomness, so without perturbation every seed
// would produce the same interleaving; thread start jitter plus bus
// arbitration jitter make the seed sweep explore distinct schedules.
type Perturb struct {
	// StartJitter delays each thread's start by a seeded-random
	// 0..StartJitter cycles (proc.Config.StartJitter).
	StartJitter uint64
	// ArbJitter adds a seeded-random 0..ArbJitter cycles to every bus grant
	// (bus.Config.ArbJitter).
	ArbJitter uint64

	// Faults configures deterministic fault injection for the machine runs
	// (chaos mode). The analytic reference model is untouched: injected
	// adversity may change WHICH contained outcome a run lands on, but any
	// outcome outside the lock-based reference set is still a divergence —
	// containment must hold under every legal fault configuration.
	Faults fault.Spec

	// CM selects the contention-management policy eliding schemes use
	// (core.CM). Like Faults, the reference model is untouched: a policy may
	// change which contained outcome a run lands on, but every policy must
	// stay within the lock-based reference set. The zero value (the paper's
	// timestamp policy) leaves the machine configuration bit-identical to a
	// perturbation without the field.
	CM core.CM
}

// DefaultPerturb spreads thread starts across a few hundred cycles (the
// scale of a cache miss). Bus arbitration jitter is left off: measured on the
// full 2x2x<=3 sweep it adds no observed outcomes beyond what start jitter
// already exposes, and a nonzero ArbJitter forces every machine to seed the
// kernel RNG (~16us of lag-table setup), which would dominate the sweep.
var DefaultPerturb = Perturb{StartJitter: 300}

// maxEvents is the litmus run event budget. A healthy run of a <=9-op
// program completes in a few thousand events; a livelocked scheme hits this
// bound in well under a millisecond instead of grinding toward the
// machine-wide half-billion default.
const maxEvents = 250_000

// machineConfig assembles the small machine litmus programs run on: the
// shared Table 2 construction path (proc.BaselineConfig) shrunk for
// micro-programs.
func machineConfig(cpus int, scheme proc.Scheme, seed int64, pt Perturb) proc.Config {
	cfg := proc.BaselineConfig(cpus, scheme, seed)
	// A litmus program touches at most a handful of padded lines; the tiny
	// cache keeps machine construction (the dominant cost of a cold sweep
	// over tens of thousands of micro-programs) cheap without ever evicting
	// the working set.
	cfg.Coherence.Cache = cache.Config{SizeBytes: 2048, Ways: 2, VictimEntries: 4}
	cfg.Coherence.Bus = bus.Config{
		SnoopLat: 20, DataLat: 20, ArbCycles: 2, Occupancy: 2,
		MaxOutstanding: 32, ArbJitter: pt.ArbJitter,
	}
	cfg.Coherence.WriteBufferLines = 16
	// The TSO store buffer is opt-in machine-wide but mandatory here: the
	// reference model quantifies over store-buffer drain schedules, and
	// running the machine with blocking stores would silently shrink the
	// behaviours the sweep exercises to the SC subset.
	cfg.Coherence.StoreBufferEntries = 8
	cfg.MaxEvents = maxEvents
	cfg.StartJitter = pt.StartJitter
	if pt.CM != core.CMTimestamp && scheme.Elides() {
		cfg.Policy.CM = pt.CM
	}
	if pt.Faults.Enabled() {
		cfg.Faults = pt.Faults
		// Faulted runs are slower (grant delays, NACK storms, forced
		// restarts): give them event-budget headroom so exhaustion cannot
		// masquerade as a divergence, and arm the watchdog so a genuine
		// stall diagnoses itself instead of grinding to the budget.
		cfg.MaxEvents = 8 * maxEvents
		cfg.StallCycles = 200_000
	}
	return cfg
}

// Runner executes litmus programs with warm-machine reuse: one machine per
// construction shape, rewound with proc.Machine.Reset between runs instead
// of rebuilt. The scheme and seed are reset knobs, not shape, so at a fixed
// CPU count every (scheme, seed) run of a sweep shares one machine — even
// better than pooling per (threads, scheme, perturbation), since the
// perturbation's only shape-relevant field (ArbJitter) lands in the bus
// config and keys the pool automatically. A Runner is single-goroutine
// state; sweeps create one per worker.
type Runner struct {
	cold     bool
	machines map[proc.ResetShape]*proc.Machine

	// Scratch arenas reused across runs (threads/ops/locs slices).
	threads []proc.LitmusThread
	ops     []proc.LitmusOp
	locs    []memsys.Addr
}

// NewRunner returns a pooling runner.
func NewRunner() *Runner {
	return &Runner{machines: make(map[proc.ResetShape]*proc.Machine)}
}

// NewColdRunner returns a runner that constructs a fresh machine per run
// (the pre-reuse behaviour; the containment gate can be run this way to
// cross-check the pool).
func NewColdRunner() *Runner { return &Runner{cold: true} }

// Run executes the program on the simulated machine under one
// (scheme, seed, perturbation) and returns its outcome string.
func (r *Runner) Run(p Program, scheme proc.Scheme, seed int64, pt Perturb) (string, error) {
	cfg := machineConfig(len(p.Threads), scheme, seed, pt)
	var m *proc.Machine
	var key proc.ResetShape
	if !r.cold {
		key = cfg.ResetShape()
		if pooled := r.machines[key]; pooled != nil && pooled.Reset(cfg) == nil {
			m = pooled
		}
	}
	if m == nil {
		m = proc.NewMachine(cfg)
	}
	out, err := r.runOn(m, p)
	if err != nil {
		// An errored run (deadlock, livelock, checker violation) leaves
		// unfinished threads and pending events behind: the machine is not
		// quiescent and must never be reused.
		if !r.cold {
			delete(r.machines, key)
		}
		return "", err
	}
	if !r.cold {
		r.machines[key] = m
	}
	return out, nil
}

// runOn builds the program's thread list into the runner's scratch arenas
// and executes it on m.
func (r *Runner) runOn(m *proc.Machine, p Program) (string, error) {
	lock := m.NewLock()
	locs := r.locs[:0]
	for i := 0; i < p.NumLocs; i++ {
		locs = append(locs, m.Alloc.PaddedWord())
	}
	r.locs = locs
	// Fill the op arena completely before slicing it per thread: appends
	// may reallocate, and per-thread views taken early would go stale.
	ops := r.ops[:0]
	for ti, t := range p.Threads {
		for j, o := range t.Ops {
			ops = append(ops, proc.LitmusOp{
				IsLoad: o.Kind == Load,
				Addr:   locs[o.Loc],
				Val:    StoreVal(ti, j),
			})
		}
	}
	r.ops = ops
	threads := r.threads[:0]
	base := 0
	for _, t := range p.Threads {
		n := len(t.Ops)
		threads = append(threads, proc.LitmusThread{
			Ops:    ops[base : base+n : base+n],
			CritLo: int(t.CritLo),
			CritHi: int(t.CritHi),
		})
		base += n
	}
	r.threads = threads
	loads, err := m.RunLitmus(lock, threads)
	if err != nil {
		return "", err
	}
	if v := m.Sys.ArchWord(lock.Addr); v != 0 {
		return "", fmt.Errorf("lock word left %d after completion", v)
	}
	return m.LitmusOutcome(loads, locs), nil
}

// Run executes the program on a freshly built machine under one
// (scheme, seed, perturbation) and returns its outcome string. Sweeps use a
// pooled Runner instead; this remains the one-shot entry point (reproducer
// tests, external callers).
func Run(p Program, scheme proc.Scheme, seed int64, pt Perturb) (string, error) {
	return NewColdRunner().Run(p, scheme, seed, pt)
}
