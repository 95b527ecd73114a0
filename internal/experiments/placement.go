package experiments

import (
	"fmt"
	"strings"

	"metronome/internal/elastic"
	"metronome/internal/sched"
	"metronome/internal/traffic"
)

func init() {
	register(Experiment{
		ID:    "fig-placement",
		Title: "Placement plane: per-queue elastic placement vs scalar team elasticity",
		Paper: "Beyond the paper: the multiqueue results (Sec. 4.3, Table III) show *where* threads sit matters as much as how many there are — an unbalanced flow shift starves one queue's service group while siblings idle. This experiment drives a hot-queue migration against (a) a static balanced team, (b) PR 4's scalar team-elastic controller, and (c) the placement plane (per-queue apportionment by wake-occupancy share), plus a ramp panel isolating the EWMA-slope feedforward that pre-provisions on rising edges",
		Run:   runPlacement,
	})
}

// placementTuning builds the controller the placement arms share; placed
// upgrades the same tuning to the placement law so team-elastic and
// placement-elastic differ in exactly one bit. The occupancy target stays
// at the default 0.10: the hot queue's structural wake occupancy
// (λ·V̄ ≈ 300 of 4096 slots) sits below it, so the size law only grows on
// *loss* — which is exactly what a good placement prevents.
func placementTuning(minThreads, budget int, placed bool) *elastic.Config {
	ec := elastic.DefaultConfig(minThreads, budget)
	ec.Placement = placed
	if placed {
		ec.SlopeGain = 8
	}
	return &ec
}

// plan renders a per-queue int vector as "a/b/c".
func plan(sizes []int) string {
	if len(sizes) == 0 {
		return "-"
	}
	parts := make([]string, len(sizes))
	for i, s := range sizes {
		parts[i] = fmt.Sprintf("%d", s)
	}
	return strings.Join(parts, "/")
}

// planMS renders per-queue thread-seconds as thread-milliseconds "a/b/c".
func planMS(ts []float64) string {
	parts := make([]string, len(ts))
	for i, v := range ts {
		parts[i] = fmt.Sprintf("%.1f", v*1e3)
	}
	return strings.Join(parts, "/")
}

// placementCells renders one arm: loss/CPU/vacation, the provisioning
// account, and the per-queue placement evidence (final plan + per-queue
// provisioned thread-milliseconds).
func placementCells(r armRun) []string {
	return []string{
		r.name,
		permille(r.met.LossRate),
		pct(r.met.CPUPercent),
		pct(r.met.BusyTryFrac * 100),
		us(r.met.MeanVacation),
		f1(r.rep.ThreadSeconds * 1e3),
		f2(r.rep.MeanThreads),
		fmt.Sprintf("%d", r.rep.Resizes),
		fmt.Sprintf("%d", r.rep.Rebalances),
		plan(r.rt.Placement()),
		planMS(r.rt.ProvisionedThreadSecondsQ(r.rt.Eng.Now())),
	}
}

var placementColumns = []string{
	"mode", "loss_permille", "cpu_pct", "busy_tries_pct", "V_us",
	"thread_ms", "mean_M", "resizes", "rebalances", "plan", "q_thread_ms",
}

func runPlacement(o Options) []*Table {
	d := dur(o, 0.8)
	warmup := 0.25 * d

	// Panel 1 — hot-queue migration at constant total offered load: 36 Mpps
	// over 4 queues whose hot flow (55%) migrates from queue 0 to queue 3
	// mid-window. The balanced plan is structurally unable to staff this
	// shape below the full budget — BalancedPlacement(6, 4) = 2/2/1/1, so
	// once the hot flow lands on queue 3 its lone attendant eats every
	// wake-delay tail alone (a ~200 us outage at ~20 Mpps overflows even a
	// 4096-descriptor ring) while queues 0 and 1 idle two members each.
	// The scalar controller's only remedy is growing the whole team until
	// round-robin finally hands queue 3 a second member; the placement law
	// migrates the idle members instead.
	shiftAt := 0.55 * d
	share := func(before, after float64) traffic.Process {
		return traffic.Step{At: shiftAt,
			Before: traffic.CBR{PPS: 36e6 * before},
			After:  traffic.CBR{PPS: 36e6 * after}}
	}
	shiftProcs := []traffic.Process{
		share(0.55, 0.15), share(0.15, 0.15), share(0.15, 0.15), share(0.15, 0.55),
	}
	shiftRuns := runArms(o, []arm{
		// With MinThreads = Budget = 6 the size law is inert, so the first
		// two arms spend *identical* thread-seconds: team-elastic-6 cannot
		// actuate at all (it IS the static balanced plan), while
		// placement-6 may only migrate members. Any loss gap between them
		// is placement, nothing else. The 4..8 arms then let the size law
		// run on top.
		{name: "team-elastic-6 (=static)", m: 6, policy: sched.NameRMetronome,
			ecfg: placementTuning(6, 6, false)},
		{name: "placement-6", m: 6, policy: sched.NameRMetronome,
			ecfg: placementTuning(6, 6, true)},
		{name: "team-elastic-4..8", m: 6, policy: sched.NameRMetronome,
			ecfg: placementTuning(4, 8, false)},
		{name: "placement-elastic-4..8", m: 6, policy: sched.NameRMetronome,
			ecfg: placementTuning(4, 8, true)},
	}, shiftProcs, d, warmup, paired(o.Seed+1600), nil)
	shift := &Table{
		ID:      "fig-placement-shift",
		Title:   "hot-queue migration (55% of 36 Mpps moves queue 0 -> 3), 4 queues, rmetronome, V̄=15us, noisy host",
		Columns: placementColumns,
		Rows:    renderRows(shiftRuns, placementCells),
		Notes: []string{
			"total offered load is constant and the balanced split is the bottleneck: 6 threads over 4 queues leaves queues 2 and 3 with one-member groups, so the migrated hot flow's wake-delay tails go uncovered — the scalar law's only remedy is growing the whole team, the placement law re-homes the idle members instead",
			"the first two arms spend identical thread-seconds by construction (MinThreads=Budget pins the size law), so their loss gap is pure placement: member migration alone covers the hot queue's tails",
			"plan is the final per-queue group sizes; q_thread_ms the exact per-queue ∫r_q(t)dt provisioning split",
		},
	}

	// Panel 2 — rising-edge feedforward: a compressed diurnal sine swings
	// each queue between ~1 and ~23 Mpps, so every period has one steep
	// climb. The plain PI only reacts once the ring has already filled
	// past target; the EWMA-slope feedforward reads the edge from
	// d(occupancy)/dt and pre-provisions while the ramp is still climbing.
	rampProcs := []traffic.Process{
		traffic.Sine{Base: 12e6, Amp: 11e6, Period: 0.25 * d},
		traffic.Sine{Base: 12e6, Amp: 11e6, Period: 0.25 * d},
	}
	edgeTuning := func(gain float64) *elastic.Config {
		ec := elastic.DefaultConfig(2, 8)
		// The edge panel keeps PR 4's tight 3% occupancy target: here the
		// point is reacting to the climb itself, so occupancy must cross
		// target well before the ring is in danger.
		ec.TargetOccupancy = 0.03
		ec.SlopeGain = gain
		return &ec
	}
	rampRuns := runArms(o, []arm{
		{name: "static-8", m: 8, policy: sched.NameAdaptive},
		{name: "elastic-pi-2..8", m: 2, policy: sched.NameAdaptive, ecfg: edgeTuning(0)},
		{name: "elastic-pi+ff-2..8", m: 2, policy: sched.NameAdaptive, ecfg: edgeTuning(16)},
	}, rampProcs, d, warmup, paired(o.Seed+1620), nil)
	ramp := &Table{
		ID:      "fig-placement-ramp",
		Title:   "rising-edge feedforward (sine 2..46 Mpps total over 2 queues), adaptive, V̄=15us",
		Columns: placementColumns,
		Rows:    renderRows(rampRuns, placementCells),
		Notes: []string{
			"the pi+ff arm adds the EWMA occupancy-slope feedforward (SlopeGain lookahead periods) to the proportional path only, so it pre-provisions on the climb but unwinds at the plain PI rate after the crest",
			"all arms share one seed, so the rows are a paired comparison under identical noise",
		},
	}

	return []*Table{shift, ramp}
}
