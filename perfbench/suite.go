package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"tlrsim/internal/harness"
	"tlrsim/internal/litmus"
	"tlrsim/internal/proc"
	"tlrsim/internal/stats"
	"tlrsim/internal/workloads"
)

// harnessOps is the operation-count scale of every harness call: the scale
// of the committed report goldens, so a run at a golden seed is checked
// byte for byte.
const harnessOps = 0.25

// rendered is one experiment's report in both of cmd/tlrsim's formats.
type rendered struct {
	table string
	csv   func() string
}

// experiment is one harness entry point and the points it simulates.
type experiment struct {
	name   string
	run    func(o harness.Options) (rendered, error)
	points func(o harness.Options) []point // nil for the static tables
}

func fromResult(f func(harness.Options) (*harness.Result, error)) func(harness.Options) (rendered, error) {
	return func(o harness.Options) (rendered, error) {
		r, err := f(o)
		if err != nil {
			return rendered{}, err
		}
		return rendered{r.Report, r.CSV}, nil
	}
}

func static(f func() string) func(harness.Options) (rendered, error) {
	return func(harness.Options) (rendered, error) {
		// cmd/tlrsim prints the static tables with a trailing newline in
		// both formats.
		s := f()
		return rendered{s, func() string { return s + "\n" }}, nil
	}
}

// paperSuite is `tlrsim -experiment all`, in its order.
func paperSuite() []experiment {
	return []experiment{
		{"table1", static(harness.Table1), nil},
		{"table2", static(harness.Table2), nil},
		{"fig8", fromResult(harness.Fig8), fig8Points},
		{"fig9", fromResult(harness.Fig9), fig9Points},
		{"fig10", fromResult(harness.Fig10), fig10Points},
		{"fig11", func(o harness.Options) (rendered, error) {
			r, err := harness.Fig11(o)
			if err != nil {
				return rendered{}, fmt.Errorf("fig11: %w", err)
			}
			return rendered{r.Report, r.CSV}, nil
		}, fig11Points},
		{"coarse", fromResult(harness.CoarseVsFine), coarsePoints},
		{"rmw", fromResult(harness.RMWEffect), rmwPoints},
		{"nack", fromResult(harness.NackVsDeferral), nackPoints},
		{"queue", fromResult(harness.DeferredQueueSweep), queuePoints},
		{"victim", fromResult(harness.VictimCacheSweep), victimPoints},
		{"penalty", fromResult(harness.RestartPenaltySweep), penaltyPoints},
		{"storebuf", fromResult(harness.StoreBufferEffect), storebufPoints},
	}
}

var cmExperiment = experiment{"cm", fromResult(harness.ContentionMatrix), cmPoints}

// harnessOptions are the options of every harness call: its points spread
// over jobs workers by the harness's own runner.Pool, as `tlrsim -jobs`
// spreads them, each finished point reported to done.
func harnessOptions(seed int64, jobs int, done func(label string, run *stats.Run)) harness.Options {
	o := harness.DefaultOptions()
	o.Seed = seed
	o.Ops = harnessOps
	o.Jobs = jobs
	if done != nil {
		o.Progress = func(_, _ int, label string, run *stats.Run) { done(label, run) }
	}
	return o
}

// call is one experiment at one seed: the unit the benchmark schedules.
type call struct {
	exp  experiment
	seed int64
}

func (c call) name() string { return fmt.Sprintf("%s seed=%d", c.exp.name, c.seed) }

func (c call) points() []point {
	if c.exp.points == nil {
		return nil
	}
	return c.exp.points(harnessOptions(c.seed, 1, nil))
}

func (c call) task() task {
	pts := c.points()
	fork := map[string]string{}
	for _, p := range pts {
		if p.fork != "" {
			fork[p.label] = p.fork
		}
	}
	return task{
		name: c.name(),
		jobs: len(pts),
		fork: fork,
		run: func(workers int, done func(string, *stats.Run)) (string, int, error) {
			r, err := c.exp.run(harnessOptions(c.seed, workers, done))
			return r.table, 0, err
		},
	}
}

// workload is one benchmark workload: harness calls, then litmus sweeps,
// run one after another as one batch.
type workload struct {
	calls []call
	lit   *litmusSweeps // nil when the batch runs no litmus sweep
	// golden compares a round's rendered reports, by task name, with the
	// committed golden that applies at this seed. It returns the golden's
	// name, "" when none applies.
	golden func(texts map[string]string) (string, error)
}

func (w *workload) tasks() []task {
	var ts []task
	for _, c := range w.calls {
		ts = append(ts, c.task())
	}
	if w.lit != nil {
		ts = append(ts, w.lit.tasks()...)
	}
	return ts
}

// setup prepares the batch's inputs cold: it enumerates every point and
// builds its machine and initial memory image, the host work a cold run pays
// before its first simulated cycle, and enumerates the litmus shape.
func (w *workload) setup() {
	for _, c := range w.calls {
		for _, p := range c.points() {
			m := proc.NewMachine(p.cfg)
			p.build().Setup(m)
		}
	}
	if w.lit != nil {
		w.lit.setup()
	}
}

// litmusShortShape is `tlrlitmus -short`: at most 2 ops per thread.
var litmusShortShape = litmus.Shape{CPUs: 2, Locs: 2, MaxOps: 2}

// paperWorkload is what reproducing the paper means: the `-experiment all`
// suite at one seed, plus the containment proof — elided outcomes inside
// locked ones — over the short litmus shape at four seeds, as one job.
func paperWorkload(seed int64) *workload {
	w := &workload{lit: newLitmusSweeps(litmusShortShape, []int64{4*seed - 3, 4*seed - 2, 4*seed - 1, 4 * seed})}
	for _, e := range paperSuite() {
		w.calls = append(w.calls, call{e, seed})
	}
	w.golden = func(texts map[string]string) (string, error) {
		var ordered []string
		for _, c := range w.calls {
			ordered = append(ordered, texts[c.name()])
		}
		return compareGolden(fmt.Sprintf("all_seed%d_table.golden", seed), suiteTable(ordered))
	}
	return w
}

// cmSeedStride separates the contention matrices' seeds; with it, seed 2
// runs one matrix at seed 2002, the committed golden's.
const cmSeedStride = 1000

// cmMatrices is how many matrices a contention round runs: enough that the
// seed-to-seed swing of one matrix's simulated work averages out, two per
// worker of a two-worker host.
const cmMatrices = 4

// contentionWorkload is the policy-vs-workload matrix at seeds seed,
// seed+1000, seed+2000 and seed+3000.
func contentionWorkload(seed int64) *workload {
	w := &workload{}
	for i := 0; i < cmMatrices; i++ {
		w.calls = append(w.calls, call{cmExperiment, seed + int64(i)*cmSeedStride})
	}
	w.golden = func(texts map[string]string) (string, error) {
		for _, c := range w.calls {
			name, err := compareGolden(fmt.Sprintf("cm_seed%d_table.golden", c.seed), texts[c.name()]+"\n")
			if name != "" || err != nil {
				return name, err
			}
		}
		return "", nil
	}
	return w
}

// suiteTable renders the suite's reports as `tlrsim -experiment all` prints
// them.
func suiteTable(texts []string) string {
	var b strings.Builder
	for _, t := range texts {
		b.WriteString(t)
		b.WriteByte('\n')
	}
	return b.String()
}

// goldenDir holds the committed reports, relative to the repository root the
// benchmark runs from.
const goldenDir = "testdata"

// compareGolden compares got with the named golden when it exists. It
// returns the name when it compared, and an error when the two differ.
func compareGolden(name, got string) (string, error) {
	want, err := os.ReadFile(filepath.Join(goldenDir, name))
	if os.IsNotExist(err) {
		return "", nil
	}
	if err != nil {
		return name, err
	}
	if got != string(want) {
		return name, fmt.Errorf("%s: report differs from the golden (%d vs %d bytes)", name, len(got), len(want))
	}
	return name, nil
}

// checkGoldens runs the goldens' configurations — the paper suite at seeds
// 1, 2 and 42 and the matrix at seed 2002, each in table and CSV form, on
// the given number of workers — and compares them byte for byte with the
// committed files.
func checkGoldens(workers int) error {
	check := func(name, got string) error {
		if _, err := os.Stat(filepath.Join(goldenDir, name)); err != nil {
			return err
		}
		_, err := compareGolden(name, got)
		return err
	}
	for _, seed := range []int64{1, 2, 42} {
		var table, csv strings.Builder
		for _, e := range paperSuite() {
			r, err := e.run(harnessOptions(seed, workers, nil))
			if err != nil {
				return fmt.Errorf("seed %d: %s: %w", seed, e.name, err)
			}
			table.WriteString(r.table + "\n")
			fmt.Fprintf(&csv, "# %s\n%s", e.name, r.csv())
		}
		if err := check(fmt.Sprintf("all_seed%d_table.golden", seed), table.String()); err != nil {
			return err
		}
		if err := check(fmt.Sprintf("all_seed%d_csv.golden", seed), csv.String()); err != nil {
			return err
		}
	}
	r, err := cmExperiment.run(harnessOptions(2002, workers, nil))
	if err != nil {
		return fmt.Errorf("cm: %w", err)
	}
	if err := check("cm_seed2002_table.golden", r.table+"\n"); err != nil {
		return err
	}
	return check("cm_seed2002_csv.golden", r.csv())
}

// timedWorkload wraps a workload so the replay can time its Setup and
// Validate, which workloads.RunOn and RunPrograms call internally.
type timedWorkload struct {
	workloads.Workload
	sp spans
}

func (w timedWorkload) Setup(m *proc.Machine) {
	defer w.sp.time("workloads.setup")()
	w.Workload.Setup(m)
}

func (w timedWorkload) Validate(m *proc.Machine) error {
	defer w.sp.time("workloads.validate")()
	return w.Workload.Validate(m)
}
