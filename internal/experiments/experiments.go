// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. V). Each experiment is registered under the ID used in
// DESIGN.md's per-experiment index (tab1, fig5, ...), runs the relevant
// simulation or closed-form baseline, and renders the same rows/series the
// paper reports. bench_test.go and cmd/metrobench both drive this registry.
package experiments

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"metronome/internal/core"
	"metronome/internal/elastic"
	"metronome/internal/faults"
	"metronome/internal/nic"
	"metronome/internal/obsv"
	"metronome/internal/power"
	"metronome/internal/sim"
	"metronome/internal/telemetry"
	"metronome/internal/traffic"
	"metronome/internal/xrand"
)

// Options tune an experiment run.
type Options struct {
	// Quick shrinks durations for use inside testing.B loops; the shapes
	// survive, the confidence intervals widen.
	Quick bool
	// Seed makes the whole experiment reproducible.
	Seed uint64
	// Policy overrides the scheduling discipline (a sched registry name)
	// for every deployment that does not pin its own — the metrobench
	// -policy flag, letting any experiment re-run under fixed or busypoll.
	Policy string
	// Elastic attaches the occupancy-driven control plane (with a default
	// tuning and a 2M core budget) to every deployment flowing through
	// the common single-queue runner — the metrobench -elastic flag. The
	// fig-elastic experiment pins its own controllers regardless.
	Elastic bool
	// Placement upgrades the Elastic override to the placement plane: the
	// controller apportions members per queue (and feeds the slope
	// feedforward) instead of only moving the scalar M — the metrobench
	// -placement flag. fig-placement pins its own controllers regardless.
	Placement bool
	// RingCap overrides the Rx descriptor-ring capacity for deployments
	// flowing through the common single-queue runner that do not pin
	// their own — the metrobench -cap flag, scoped like Elastic (the nic
	// default 576-slot ring makes the elastic occupancy target coarse).
	RingCap int64
	// Objective overrides the elastic controller's minimisation target for
	// the Options-level override ("thread-seconds" or "joules") — the
	// metrobench -objective flag, scoped like Elastic: experiments that pin
	// their own controllers (fig-elastic, fig-power, ...) are unaffected.
	Objective string
	// NoHist drops the exact-histogram latency-tail panels from the
	// experiments that render them (fig-elastic, fig-faults, fig-power) —
	// the metrobench -hist=false flag. The zero value keeps the panels on.
	NoHist bool
	// Parallel bounds how many independent simulations a sweep experiment
	// runs concurrently; 0 means GOMAXPROCS. Each row/series point is a
	// self-contained deterministic simulation (own engine, RNG streams and
	// queues) with a seed fixed by its index, and results are collected by
	// index, so the rendered tables are byte-identical at any parallelism.
	Parallel int
}

// workers resolves the effective worker-pool size.
func (o Options) workers() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// ParMap evaluates fn(0..n-1) on a bounded worker pool (workers <= 0
// means GOMAXPROCS) and returns the results in index order. With one
// worker it degenerates to a plain loop on the calling goroutine. fn must
// be self-contained: every simulation it launches owns its engine, queues
// and RNG streams, and its seed must derive from i (never from shared
// mutable state), which is what keeps a sweep deterministic under any
// interleaving. Exported so CLIs (metrosim -runs) share the same pool.
func ParMap[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// parMap is ParMap under an experiment's Options.
func parMap[T any](o Options, n int, fn func(i int) T) []T {
	return ParMap(o.workers(), n, fn)
}

// Table is one rendered artifact (a paper table, or one panel of a figure).
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
	// Charts holds pre-rendered ASCII figures appended after the rows.
	Charts []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, c := range t.Charts {
		fmt.Fprintln(w)
		fmt.Fprint(w, c)
	}
	fmt.Fprintln(w)
}

// Experiment is one registry entry.
type Experiment struct {
	ID    string
	Title string
	// Paper describes what the original artifact reports, for
	// EXPERIMENTS.md cross-referencing.
	Paper string
	Run   func(Options) []*Table
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns the registered experiments in declaration order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Doc writes the EXPERIMENTS.md paper-vs-measured skeleton, generated from
// the registry's Paper fields so the document can never drift from the
// experiments that actually exist. Regenerate with:
//
//	go run ./cmd/metrobench -doc > EXPERIMENTS.md
func Doc(w io.Writer) {
	fmt.Fprint(w, `# EXPERIMENTS — paper vs. measured

Every table and figure of the paper's evaluation (Sec. V) is regenerated by
a registered experiment in `+"`internal/experiments`"+`. This index is
generated from that registry (`+"`go run ./cmd/metrobench -doc`"+`); the
"paper" lines quote what the original artifact reports, and each
"reproduce" command prints the measured counterpart as an aligned text
table. Runs are deterministic per seed, at any `+"`-parallel`"+` setting.

Full sweep: `+"`go run ./cmd/metrobench -run all`"+` (append `+"`-quick`"+`
for a ~10x faster smoke pass with wider confidence intervals). The same
registry backs `+"`bench_test.go`"+`, so `+"`go test -bench=.`"+` doubles
as the whole reproduction with headline quantities as benchmark metrics.

`)
	for _, e := range All() {
		fmt.Fprintf(w, "## %s — %s\n\n", e.ID, e.Title)
		fmt.Fprintf(w, "- **Paper:** %s\n", e.Paper)
		fmt.Fprintf(w, "- **Reproduce:** `go run ./cmd/metrobench -run %s`\n", e.ID)
		fmt.Fprintf(w, "- **Measured:** _run the command above and paste the headline rows here_\n\n")
	}
}

// --- shared runners --------------------------------------------------------

// Deployment describes one simulated Metronome deployment. Deploy is the
// one place a sim deployment is wired: the facade's Simulate* entries and
// every experiment build through it.
type Deployment struct {
	// Cfg configures the runtime. Cfg.Seed seeds the per-queue arrival
	// streams and the threads alike; a Cfg.Bus set by the caller attaches
	// telemetry without a controller (bus-driven policies such as
	// worksteal's occupancy ranking read it), and Cfg.Recorder rides every
	// control-plane source the deployment wires.
	Cfg core.Config
	// Dur is the measured window and Warmup the lead-in before it, both in
	// virtual seconds; every windowed stat resets at the warm-up boundary.
	Dur, Warmup float64
	// Elastic attaches the occupancy-driven control plane: a bus sized for
	// the budget (replacing Cfg.Bus), a controller and an engine ticker at
	// its control period. MinThreads defaults to one per queue and
	// Recorder to Cfg.Recorder.
	Elastic *elastic.Config
	// Faults schedules the deterministic fault plane into the run: an
	// injector sized to the deployment (elastic budget included) replaces
	// Cfg.Faults and the events fire as ordinary engine events, so a
	// faulted sweep stays byte-identical at any -parallel. A
	// ControllerDown event suppresses the elastic ticker until
	// ControllerUp.
	Faults []faults.Event

	// optFn tweaks every queue's options after the Cfg.RingCap override
	// (nil = defaults), so experiment-pinned ring shapes win over -cap.
	optFn func(nic.Options) nic.Options
	// hook observes the wired deployment before the clock runs — the fault
	// experiments register their recovery probes (engine tickers sampling
	// ring state) through it.
	hook func(r *core.Runtime)
}

// overridePolicy applies the Options-level discipline override to cfg,
// unless the experiment pinned its own (an explicit Policy name, or the
// legacy fixed-TS fields).
func overridePolicy(o Options, cfg *core.Config) {
	if cfg.Policy == "" && cfg.Adaptive {
		cfg.Policy = o.Policy
	}
}

// Deploy runs the deployment over procs, one arrival process per queue,
// and snapshots metrics over the post-warm-up window. With a controller
// attached it drives the team from an engine ticker (pure virtual-time
// events, so elastic sweeps stay byte-identical at any -parallel) and the
// report carries its provisioning account; static deployments get a
// synthesized report (M threads for the whole window) so elastic and
// static rows are comparable in one table.
//
// procs travels apart from s because escape analysis is field-insensitive:
// s's config pointers reach the heap, and a slice riding beside them would
// drag every caller's arrival slice there too (BENCH_simulate's alloc gate
// counts it).
func Deploy(procs []traffic.Process, s Deployment) (*core.Runtime, core.Metrics, elastic.Report) {
	budget := s.Cfg.M
	if s.Elastic != nil {
		budget = max(budget, s.Elastic.Budget)
		s.Cfg.Bus = telemetry.NewBus(len(procs), budget)
	}
	var inj *faults.Injector
	if len(s.Faults) > 0 {
		inj = faults.New(budget, len(procs))
		s.Cfg.Faults = inj
	}
	eng := sim.New()
	root := xrand.New(s.Cfg.Seed)
	queues := make([]*nic.Queue, len(procs))
	for i, p := range procs {
		opt := nic.DefaultOptions()
		if s.Cfg.RingCap > 0 {
			opt.Cap = s.Cfg.RingCap
		}
		if s.optFn != nil {
			opt = s.optFn(opt)
		}
		queues[i] = nic.NewQueue(i, p, root.Split(), opt)
	}
	r := core.New(eng, queues, s.Cfg)
	r.Start()
	var ctrl *elastic.Controller
	if s.Elastic != nil {
		ec := *s.Elastic
		if ec.MinThreads == 0 {
			ec.MinThreads = len(procs)
		}
		if ec.Recorder == nil {
			ec.Recorder = s.Cfg.Recorder
		}
		// Construct after Start: the controller's initial clamp resizes
		// through the live resize path, never double-arming first wakes.
		ctrl = elastic.New(s.Cfg.Bus, r, ec)
		eng.Ticker(ctrl.Config().Period, "elastic-tick", func() {
			if inj != nil && inj.ControllerSuppressed() {
				return
			}
			ctrl.Tick(eng.Now())
		})
	}
	if inj != nil {
		obsv.AttachFaults(inj, s.Cfg.Recorder) // no-op when no recorder is wired
		faults.Schedule(eng, inj, s.Faults)
	}
	if s.hook != nil {
		s.hook(r)
	}
	if s.Warmup > 0 {
		eng.RunUntil(s.Warmup)
		r.ResetWindow(eng.Now())
		if ctrl != nil {
			ctrl.ResetStats(eng.Now())
		}
		// The flight recorder windows with the other stats: the engine is
		// parked at the warm-up boundary, so the reset cannot race writers.
		s.Cfg.Recorder.Reset()
	}
	end := s.Warmup + s.Dur
	eng.RunUntil(end)
	rep := elastic.Report{MinThreads: r.TeamSize(), MaxThreads: r.TeamSize(), Final: r.TeamSize()}
	if ctrl != nil {
		rep = ctrl.Report(end)
	}
	// Thread-seconds come from the core's exact ∫M(t)dt integral rather
	// than the controller's tick-quantised account.
	rep.ThreadSeconds = r.ProvisionedThreadSeconds(end)
	if s.Dur > 0 {
		rep.MeanThreads = rep.ThreadSeconds / s.Dur
	}
	return r, r.Snapshot(s.Dur), rep
}

// overrideElastic yields the Options-level elastic override (-elastic on
// metrobench): a default-tuned controller with a 2M core budget, upgraded
// to the placement plane when -placement is also set.
func overrideElastic(o Options, cfg core.Config, nQueues int) *elastic.Config {
	if !o.Elastic && !o.Placement {
		return nil
	}
	ec := elastic.DefaultConfig(nQueues, 2*cfg.M)
	if o.Placement {
		ec.Placement = true
		ec.SlopeGain = 8
	}
	if o.Objective == "joules" {
		ec.Objective = elastic.ObjectiveJoules
	}
	return &ec
}

// singleQueueCBR is the common single-queue constant-rate deployment; the
// Options-level policy, elastic and ring-capacity overrides apply unless
// cfg pinned its own.
func singleQueueCBR(o Options, cfg core.Config, pps, dur float64, seed uint64) (*core.Runtime, core.Metrics) {
	if cfg.RingCap == 0 {
		cfg.RingCap = o.RingCap
	}
	overridePolicy(o, &cfg)
	cfg.Seed = seed
	rt, m, _ := Deploy([]traffic.Process{traffic.CBR{PPS: pps}}, Deployment{
		Cfg:     cfg,
		Elastic: overrideElastic(o, cfg, 1),
		Dur:     dur,
		Warmup:  dur * 0.2,
	})
	return rt, m
}

// governorPower resolves the ondemand/performance fixed point for a
// Metronome deployment and returns (metrics, watts, freq GHz). The drain
// rate scales with the frequency of the core that holds the lock, so the
// governor's view is re-simulated to a fixed point. Two rules matter:
// ondemand ramps a saturated core (util ~1) back to FMax — work expands to
// fill the queue backlog, so slowing down never looks "less utilised" —
// and each core settles at its own frequency for the power account.
func governorPower(pc power.Config, gov power.Governor, procs []traffic.Process, spec Deployment) (core.Metrics, float64, float64) {
	freq := pc.FMax
	var m core.Metrics
	var rt *core.Runtime
	var utils []float64
	for iter := 0; iter < 6; iter++ {
		spec.Cfg.FreqScale = freq / pc.FMax
		rt, m, _ = Deploy(procs, spec)
		utils = perThreadUtil(rt, m.Wall)
		umax := maxOf(utils)
		var next float64
		switch {
		case gov == power.Performance:
			next = pc.FMax
		case umax >= 0.99:
			next = pc.FMax // saturated: ondemand climbs back to full speed
		default:
			// cycles/s of real work are frequency-invariant; re-reference
			// the busiest core's demand to FMax for the governor law.
			next = pc.SteadyFreq(gov, umax*freq/pc.FMax)
		}
		if math.Abs(next-freq) < 0.02 {
			freq = next
			break
		}
		freq = (freq + next) / 2 // damped: the map can overshoot at ramp-up
	}
	// Per-core operating points: cores with lighter duty idle down on
	// their own, independent of the lock-holder's frequency.
	states := make([]power.CoreState, len(utils))
	cpuPct := 0.0
	for i, u := range utils {
		busyGHz := u * freq
		fi := freq
		if gov == power.Ondemand && u < 0.99 {
			fi = pc.SteadyFreq(gov, busyGHz/pc.FMax)
		}
		ui := 1.0
		if fi > 0 && busyGHz/fi < 1 {
			ui = busyGHz / fi
		}
		states[i] = power.CoreState{Freq: fi, Util: ui}
		cpuPct += ui * 100
	}
	// Report CPU as observed at the operating frequencies, like getrusage
	// would on the governed machine.
	m.CPUPercent = cpuPct
	return m, pc.PackagePower(states), freq
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func perThreadUtil(rt *core.Runtime, wall float64) []float64 {
	out := make([]float64, rt.Cfg.M)
	for i := range out {
		u := rt.Acct.Busy(i) / wall
		if u > 1 {
			u = 1
		}
		out[i] = u
	}
	return out
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// staticPower computes package power for n continuously-polling cores.
func staticPower(pc power.Config, gov power.Governor, cores int) float64 {
	states := make([]power.CoreState, cores)
	for i := range states {
		f := pc.SteadyFreq(gov, 1)
		states[i] = power.CoreState{Freq: f, Util: 1}
	}
	return pc.PackagePower(states)
}

// --- formatting helpers ----------------------------------------------------

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func us(v float64) string  { return fmt.Sprintf("%.2f", v*1e6) }
func pct(v float64) string { return fmt.Sprintf("%.1f", v) }
func mpps(v float64) string {
	return fmt.Sprintf("%.2f", v/1e6)
}
func permille(v float64) string { return fmt.Sprintf("%.4f", v*1000) }

// dur scales a nominal duration down in quick mode.
func dur(o Options, full float64) float64 {
	if o.Quick {
		return full / 10
	}
	return full
}
