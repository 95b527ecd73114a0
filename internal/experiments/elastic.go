package experiments

import (
	"fmt"

	"metronome/internal/core"
	"metronome/internal/elastic"
	"metronome/internal/nic"
	"metronome/internal/obsv"
	"metronome/internal/sched"
	"metronome/internal/stats"
	"metronome/internal/telemetry"
	"metronome/internal/traffic"
)

func init() {
	register(Experiment{
		ID:    "fig-elastic",
		Title: "Elastic control plane: occupancy-driven team autoscaling vs static M",
		Paper: "Beyond the paper: the sleep&wake discipline adapts each thread's timeout to load, but the paper's team size M is frozen at startup. This experiment drives a flash-crowd ramp, a diurnal sine and an unbalanced hot-queue shift (on a noisy shared host, Sec. V-E's elevated wake-delay tails) against static-M teams and the internal/elastic PI controller, comparing loss, CPU, vacation-target tracking and provisioned thread-seconds",
		Run:   runElastic,
	})
}

// arm is one comparison arm of the elastic-family figures (fig-elastic,
// fig-faults, fig-power, fig-placement): a team of m threads under policy,
// static when ecfg is nil and elastic under ecfg otherwise. rec, when
// non-nil, attaches a flight recorder to the arm's control plane
// (recording is passive, so the arm's physics are unchanged).
type arm struct {
	name   string
	m      int
	policy string
	ecfg   *elastic.Config
	rec    *obsv.Recorder
}

// armRun is one arm's finished deployment.
type armRun struct {
	arm
	rt  *core.Runtime
	met core.Metrics
	rep elastic.Report
}

// runArms runs every arm over the same day — per-queue processes procs, a
// d-second window after warmup — on the family's shared deployment: a
// noisy host, V̄=15us, 4096-descriptor rings, and telemetry on for static
// arms too so bus-driven policies (worksteal) see live occupancy in every
// mode. Arm i runs at seed(i); tune, when set, adjusts arm i's deployment
// last. Results come back in arm order at any -parallel.
func runArms(o Options, arms []arm, procs []traffic.Process, d, warmup float64, seed func(i int) uint64, tune func(i int, s *Deployment)) []armRun {
	return parMap(o, len(arms), func(i int) armRun {
		a := arms[i]
		cfg := core.DefaultConfig()
		cfg.M = a.m
		cfg.VBar = 15e-6
		cfg.Policy = a.policy
		cfg.Seed = seed(i)
		cfg.Recorder = a.rec
		noisyHost(&cfg)
		if a.ecfg == nil {
			cfg.Bus = telemetry.NewBus(len(procs), a.m)
		}
		s := Deployment{
			Cfg:     cfg,
			Dur:     d,
			Warmup:  warmup,
			Elastic: a.ecfg,
			optFn:   func(opt nic.Options) nic.Options { opt.Cap = 4096; return opt },
		}
		if tune != nil {
			tune(i, &s)
		}
		rt, met, rep := Deploy(procs, s)
		return armRun{arm: a, rt: rt, met: met, rep: rep}
	})
}

// perArm seeds arm i at base+i: independent noise draws per arm.
func perArm(base uint64) func(int) uint64 {
	return func(i int) uint64 { return base + uint64(i) }
}

// paired seeds every arm at base: identical traffic and wake-delay-tail
// realisations, so the rows are a paired comparison of pure actuation
// policy, not of noise draws.
func paired(base uint64) func(int) uint64 {
	return func(int) uint64 { return base }
}

// renderRows renders one table row per element with a column renderer.
func renderRows[T any](xs []T, cells func(T) []string) [][]string {
	rows := make([][]string, len(xs))
	for i, x := range xs {
		rows[i] = cells(x)
	}
	return rows
}

// elasticTuning is the controller tuning the experiment ships: wake-time
// occupancy above ~3% of the 4096-descriptor ring (a flash crowd's backlog
// at these rates) is grow pressure, loss overrides, shrinks wait out a
// 16 ms cooldown.
func elasticTuning(minThreads, budget int) *elastic.Config {
	ec := elastic.DefaultConfig(minThreads, budget)
	ec.TargetOccupancy = 0.03
	return &ec
}

// noisyHost raises the wake-delay tail probability to the shared-machine
// regime: ~1 in 1000 wakes eats a lognormal hundreds-of-microseconds
// delay. A lone attendant's queue buffers that outage or overflows; a
// bigger team masks it, which is exactly the capacity the controller is
// buying when it grows.
func noisyHost(cfg *core.Config) {
	cfg.Wake.TailProb = 1e-3
}

// elasticCells renders one fig-elastic arm: loss/CPU/vacation on the
// left, the provisioning account on the right.
func elasticCells(r armRun) []string {
	return []string{
		r.name,
		permille(r.met.LossRate),
		pct(r.met.CPUPercent),
		pct(r.met.BusyTryFrac * 100),
		us(r.met.MeanVacation),
		f1(r.rep.ThreadSeconds * 1e3), // thread-milliseconds: readable at these windows
		f2(r.rep.MeanThreads),
		fmt.Sprintf("%d..%d", r.rep.MinThreads, r.rep.MaxThreads),
		fmt.Sprintf("%d", r.rep.Resizes),
	}
}

// tailColumns are the exact-histogram latency-tail cells appended by the
// experiments that render tail panels; values are microseconds read from
// the bus histograms (bucket upper edges, ≤3.2% wide — see stats.LogHistogram).
var tailColumns = []string{"p50_us", "p99_us", "p999_us", "p9999_us", "lmax_us"}

// tailCells folds every queue's bus histogram into one deployment-wide
// distribution and renders the arm's tail quantiles. The histograms were
// reset at warm-up, so the cells cover the measured window exactly — but
// only its latency-tagged packets: the sim feeds the bus from nic's
// MoonGen-style tags (Options.TagProb, 1 arrival in 1000 by default), not
// from every packet.
func tailCells(r armRun) []string {
	row := []string{r.name, "-", "-", "-", "-", "-"}
	bus := r.rt.Cfg.Bus
	if bus == nil {
		return row
	}
	var h stats.LogHistogram
	for q := range r.rt.Queues {
		bus.SampleLatency(q, &h)
	}
	if h.N() == 0 {
		return row
	}
	at := func(p float64) string { return us(float64(h.Quantile(p)) * 1e-9) }
	return []string{r.name, at(0.5), at(0.99), at(0.999), at(0.9999), us(float64(h.Max()) * 1e-9)}
}

// tailsTable renders a figure's exact-histogram tail panel — retrieval
// latency quantiles over the measured window, from the bus histograms —
// unless the Options-level -hist override dropped the tail panels.
func tailsTable(o Options, id, title string, rows [][]string) []*Table {
	if o.NoHist {
		return nil
	}
	return []*Table{{
		ID:      id,
		Title:   title,
		Columns: append([]string{"mode"}, tailColumns...),
		Rows:    rows,
		Notes: []string{
			"exact log-scale histogram quantiles (bucket upper edges, <=3.2% wide) over the measured window's latency-tagged packets — the sim tags arrivals MoonGen-style, 1 in 1000 (nic TagProb), not every packet",
		},
	}}
}

var elasticColumns = []string{
	"mode", "loss_permille", "cpu_pct", "busy_tries_pct", "V_us",
	"thread_ms", "mean_M", "M_range", "resizes",
}

func runElastic(o Options) []*Table {
	d := dur(o, 0.8)
	warmup := 0.25 * d

	// Panel 1 — flash crowd: 2 queues idle at 4 Mpps total, a 28 Mpps
	// crowd lands at 0.5d and leaves at 0.9d (40% of the measured window).
	crowd := func(q int) traffic.Process {
		lo, hi := 2e6, 14e6
		return traffic.Step{At: 0.5 * d, Before: traffic.CBR{PPS: lo},
			After: traffic.Step{At: 0.9 * d, Before: traffic.CBR{PPS: hi},
				After: traffic.CBR{PPS: lo}}}
	}
	crowdRuns := runArms(o, []arm{
		{name: "static-2", m: 2, policy: sched.NameAdaptive},
		{name: "static-8", m: 8, policy: sched.NameAdaptive},
		{name: "elastic-2..8", m: 2, policy: sched.NameAdaptive, ecfg: elasticTuning(2, 8)},
	}, []traffic.Process{crowd(0), crowd(1)}, d, warmup, perArm(o.Seed+1500), nil)
	flash := &Table{
		ID:      "fig-elastic-flash",
		Title:   "flash crowd (4 -> 28 -> 4 Mpps over 2 queues), noisy host, V̄=15us",
		Columns: elasticColumns,
		Rows:    renderRows(crowdRuns, elasticCells),
		Notes: []string{
			"static-2 overflows the 4096-descriptor rings on wake-delay tails at the peak; static-8 survives it but provisions 8 threads for the whole window",
			"elastic grows on the occupancy/loss PI only while the crowd is in, so it matches static-8's loss at a fraction of the thread-seconds",
		},
	}

	// Panel 2 — diurnal sine: the day/night curve compressed into the
	// run, 1 to 15 Mpps per queue, under the shared-queue discipline.
	day := 0.625 * d
	sineRuns := runArms(o, []arm{
		{name: "static-2", m: 2, policy: sched.NameRMetronome},
		{name: "static-8", m: 8, policy: sched.NameRMetronome},
		{name: "elastic-2..8", m: 2, policy: sched.NameRMetronome, ecfg: elasticTuning(2, 8)},
	}, []traffic.Process{
		traffic.Sine{Base: 8e6, Amp: 7e6, Period: day},
		traffic.Sine{Base: 8e6, Amp: 7e6, Period: day},
	}, d, warmup, perArm(o.Seed+1520), nil)
	diurnal := &Table{
		ID:      "fig-elastic-diurnal",
		Title:   "diurnal sine (1..15 Mpps per queue), rmetronome groups, V̄=15us",
		Columns: elasticColumns,
		Rows:    renderRows(sineRuns, elasticCells),
		Notes: []string{
			"the controller's mean_M rides the sine: r = M/N group sizes recompute online through sched.Resizable",
		},
	}

	// Panel 3 — unbalanced shift: 24 Mpps over 3 queues whose hot queue
	// (60% of the traffic) migrates from queue 0 to queue 2 mid-window;
	// work-stealing backups chase it via bus occupancy.
	shiftAt := 0.7 * d
	share := func(before, after float64) traffic.Process {
		return traffic.Step{At: shiftAt,
			Before: traffic.CBR{PPS: 24e6 * before},
			After:  traffic.CBR{PPS: 24e6 * after}}
	}
	shiftRuns := runArms(o, []arm{
		{name: "rmetronome-static-6", m: 6, policy: sched.NameRMetronome},
		{name: "worksteal-static-6", m: 6, policy: sched.NameWorkSteal},
		{name: "worksteal-elastic-3..6", m: 3, policy: sched.NameWorkSteal, ecfg: elasticTuning(3, 6)},
	}, []traffic.Process{
		share(0.6, 0.2), share(0.2, 0.2), share(0.2, 0.6),
	}, d, warmup, perArm(o.Seed+1540), nil)
	shift := &Table{
		ID:      "fig-elastic-shift",
		Title:   "unbalanced shift (60% hot flow migrates queue 0 -> 2 mid-run), 3 queues",
		Columns: elasticColumns,
		Rows:    renderRows(shiftRuns, elasticCells),
		Notes: []string{
			"worksteal re-targets lost-race threads at the occupancy-hottest queue straight off the telemetry bus, so backup capacity follows the migration within a vacation",
			"the hot flow never leaves, so the controller converges to the static provisioning instead of undercutting it — elastic only wins thread-seconds while demand actually varies",
		},
	}

	tables := []*Table{flash, diurnal, shift}
	tables = append(tables, tailsTable(o, "fig-elastic-tails-flash", "flash crowd — exact latency tails", renderRows(crowdRuns, tailCells))...)
	tables = append(tables, tailsTable(o, "fig-elastic-tails-diurnal", "diurnal sine — exact latency tails", renderRows(sineRuns, tailCells))...)
	return append(tables, tailsTable(o, "fig-elastic-tails-shift", "unbalanced shift — exact latency tails", renderRows(shiftRuns, tailCells))...)
}
