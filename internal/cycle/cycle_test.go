package cycle_test

import (
	"testing"

	"metronome/internal/cycle"
	"metronome/internal/faults"
	"metronome/internal/model"
	"metronome/internal/sched"
	"metronome/internal/telemetry"
	"metronome/internal/xrand"
)

const (
	vbar  = 10e-6
	tl    = 500e-6
	alpha = 0.125
)

// obs is one scripted observation a driver feeds the protocol.
type obs struct {
	kind      string // "gate", "lost" or "release"
	id, q     int
	retired   bool    // gate: the thread is outside the team
	now       float64 // gate: substrate clock
	busy, vac float64 // release: the completed cycle
}

// act is the action the protocol must return for an observation.
type act struct {
	verdict cycle.Verdict // gate
	until   float64       // gate: end of a stall
	next    int           // lost, release: the queue contended next
	sleep   float64       // lost, release: seconds to sleep first
}

// dephaseStub is a placing group policy whose de-phasing marks each sleep
// with its path and the queue it was asked about, so the table can see
// that both steps route through Dephase, and with which queue.
type dephaseStub struct{ *sched.RMetronome }

func (d dephaseStub) Dephase(thread, q int, ts float64, backup bool) float64 {
	if backup {
		return ts + 2 + 10*float64(q)
	}
	return ts + 1 + 10*float64(q)
}

// rhoAfter is the load estimate one observed cycle leaves behind.
func rhoAfter(busy, vac float64) float64 {
	return sched.NewRhoEstimator(1, alpha).Observe(0, busy, vac)
}

func TestProtocolSteps(t *testing.T) {
	// The uniform backup pick draws from the thread's RNG; replay the
	// draws the protocol will make from a second stream on the same seed.
	ref := xrand.New(7)
	pick1, pick2 := ref.Intn(4), ref.Intn(4)

	stub := func(cfg sched.Config) sched.Policy {
		return dephaseStub{sched.NewRMetronome(cfg, false)}
	}
	cases := []struct {
		name   string
		policy string
		build  func(sched.Config) sched.Policy // overrides policy when set
		m, n   int
		plan   []int // adopted before the script when set
		tweak  func(*sched.Config)
		setup  func(f *faults.Injector, b *telemetry.Bus)
		script []obs
		want   []act
	}{
		{
			name: "gate: retired, dead, stalled, contend", policy: "adaptive", m: 4, n: 2,
			setup: func(f *faults.Injector, b *telemetry.Bus) {
				f.KillThread(1)
				f.StallThread(2, 0.5)
			},
			script: []obs{
				{kind: "gate", id: 1, retired: true, now: 0.1},
				{kind: "gate", id: 1, now: 0.1},
				{kind: "gate", id: 2, now: 0.1},
				{kind: "gate", id: 2, now: 0.5},
				{kind: "gate", id: 0, now: 0.1},
			},
			want: []act{
				{verdict: cycle.Retired},
				{verdict: cycle.Dead},
				{verdict: cycle.Stalled, until: 0.5},
				{verdict: cycle.Contend},
				{verdict: cycle.Contend},
			},
		},
		{
			name: "lost: uniform re-target sleeps TL of the lost queue", policy: "adaptive", m: 4, n: 4,
			script: []obs{{kind: "lost", id: 0, q: 1}, {kind: "lost", id: 0, q: 3}},
			want:   []act{{next: pick1, sleep: tl}, {next: pick2, sleep: tl}},
		},
		{
			name: "lost: sticky re-contends the same queue", policy: "adaptive", m: 4, n: 4,
			tweak:  func(c *sched.Config) { c.BackupSticky = true },
			script: []obs{{kind: "lost", id: 0, q: 2}},
			want:   []act{{next: 2, sleep: tl}},
		},
		{
			name: "lost: worksteal re-targets the fullest sibling", policy: "worksteal", m: 4, n: 4,
			setup: func(f *faults.Injector, b *telemetry.Bus) {
				b.SetOccupancy(0, 900) // the lost queue itself never counts
				b.SetOccupancy(3, 100)
				b.SetOccupancy(2, 40)
			},
			// r = 1 member per queue: TL is one member timeout.
			script: []obs{{kind: "lost", id: 1, q: 0}},
			want:   []act{{next: 3, sleep: model.TSForTarget(vbar, 0, 1)}},
		},
		{
			// Groups of 3 and 1: TL is the lost queue's rotation r_q·TS,
			// not the re-target's.
			name: "lost: worksteal under an uneven plan sleeps the lost queue's TL", policy: "worksteal", m: 4, n: 2,
			plan:   []int{3, 1},
			script: []obs{{kind: "lost", id: 1, q: 1}},
			want:   []act{{next: 0, sleep: model.TSForTarget(vbar, 0, 1)}},
		},
		{
			name: "lost and release: busypoll never sleeps", policy: "busypoll", m: 3, n: 2,
			script: []obs{{kind: "lost", id: 0, q: 1}, {kind: "release", id: 0, q: 1, busy: 3e-6, vac: 1e-6}},
			want:   []act{{next: 1, sleep: 0}, {next: 1, sleep: 0}},
		},
		{
			name: "release: adaptive re-evaluates eq. (14)", policy: "adaptive", m: 3, n: 1,
			script: []obs{{kind: "release", id: 2, q: 0, busy: 4e-6, vac: 12e-6}},
			want:   []act{{next: 0, sleep: model.TSForTargetMultiqueue(vbar, rhoAfter(4e-6, 12e-6), 3, 1)}},
		},
		{
			name: "release: fixed keeps TS", policy: "fixed", m: 3, n: 1,
			tweak:  func(c *sched.Config) { c.TSFixed = 50e-6 },
			script: []obs{{kind: "release", id: 0, q: 0, busy: 4e-6, vac: 12e-6}},
			want:   []act{{next: 0, sleep: 50e-6}},
		},
		{
			// M=4 over N=2: threads 0,2 home on queue 0, threads 1,3 on 1.
			name: "release: rmetronome member returns home from a foreign queue", policy: "rmetronome", m: 4, n: 2,
			script: []obs{
				{kind: "release", id: 0, q: 0, busy: 4e-6, vac: 12e-6},
				{kind: "release", id: 1, q: 0, busy: 4e-6, vac: 12e-6},
			},
			want: []act{
				{next: 0, sleep: model.TSForTarget(vbar, rhoAfter(4e-6, 12e-6), 2)},
				// Queue 1 has observed nothing: its member timeout is at rho 0.
				{next: 1, sleep: model.TSForTarget(vbar, 0, 2)},
			},
		},
		{
			name: "dephase: both paths, on the queue slept towards", build: stub, m: 4, n: 2,
			script: []obs{
				{kind: "lost", id: 1, q: 1},
				{kind: "release", id: 1, q: 0, busy: 4e-6, vac: 12e-6},
			},
			want: []act{
				// Lost: re-target drawn from the RNG, TL = r·TS = 2 member
				// timeouts, de-phased as a backup sleep on the new queue.
				{next: xrand.New(7).Intn(2), sleep: 2*model.TSForTarget(vbar, 0, 2) + 2 + 10*float64(xrand.New(7).Intn(2))},
				// Release: home return to queue 1, de-phased as a release.
				{next: 1, sleep: model.TSForTarget(vbar, 0, 2) + 1 + 10},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := sched.Config{VBar: vbar, TL: tl, M: tc.m, N: tc.n, Alpha: alpha}
			bus := telemetry.NewBus(tc.n, tc.m)
			cfg.Bus = bus
			if tc.tweak != nil {
				tc.tweak(&cfg)
			}
			var pol sched.Policy
			if tc.build != nil {
				pol = tc.build(cfg)
			} else {
				pol = sched.MustNew(tc.policy, cfg)
			}
			inj := faults.New(tc.m, tc.n)
			if tc.setup != nil {
				tc.setup(inj, bus)
			}
			p := cycle.New(pol, tc.n, bus, inj)
			if tc.plan != nil {
				p.Adopt(tc.plan, tc.plan[0]+tc.plan[1])
			}
			rng := xrand.New(7)
			for i, o := range tc.script {
				var got act
				switch o.kind {
				case "gate":
					got.verdict, got.until = p.Gate(o.id, o.retired, o.now)
				case "lost":
					got.next, got.sleep = p.Lost(o.id, o.q, rng)
				case "release":
					got.next, got.sleep = p.Release(o.id, o.q, o.busy, o.vac)
				}
				if got != tc.want[i] {
					t.Errorf("step %d %+v: got %+v, want %+v", i, o, got, tc.want[i])
				}
			}
		})
	}
}

func TestProtocolTelemetryAndDarkGates(t *testing.T) {
	pol := sched.MustNew("adaptive", sched.Config{VBar: vbar, TL: tl, M: 3, N: 2})
	if p := cycle.New(pol, 2, nil, nil); p.Publish(0) || p.Dark(0) {
		t.Fatal("no bus, no faults: nothing publishes and nothing is dark")
	}
	inj := faults.New(3, 2)
	inj.FreezeTelemetry(0, true)
	inj.SetQueueDark(1, true)
	p := cycle.New(pol, 2, telemetry.NewBus(2, 3), inj)
	if p.Publish(0) || !p.Publish(1) {
		t.Fatalf("frozen queue 0 must not publish, queue 1 must: got %v %v", p.Publish(0), p.Publish(1))
	}
	if p.Dark(0) || !p.Dark(1) {
		t.Fatalf("only queue 1 is dark: got %v %v", p.Dark(0), p.Dark(1))
	}
	// Released: the frozen queue's gauges hold, the heartbeat moves anyway.
	bus := telemetry.NewBus(2, 3)
	p = cycle.New(pol, 2, bus, inj)
	pol.Estimator().Set(0, 0.4)
	pol.Estimator().Set(1, 0.3)
	p.Released(2, 0, 1.5, 7.0)
	if bus.PubSeq(0) != 0 || bus.Rho(0) != 0 || bus.ThreadBusy(2) != 0 || bus.Heartbeat(2) != 7.0 {
		t.Fatalf("frozen release: pub %d rho %v duty %v heartbeat %v",
			bus.PubSeq(0), bus.Rho(0), bus.ThreadBusy(2), bus.Heartbeat(2))
	}
	p.Released(1, 1, 2.5, 8.0)
	if bus.PubSeq(1) != 1 || bus.Rho(1) != 0.3 || bus.ThreadBusy(1) != 2.5 || bus.Heartbeat(1) != 8.0 {
		t.Fatalf("live release: pub %d rho %v duty %v heartbeat %v",
			bus.PubSeq(1), bus.Rho(1), bus.ThreadBusy(1), bus.Heartbeat(1))
	}
}

func TestProtocolClaimOrderIsTheDriversChoice(t *testing.T) {
	pol := sched.MustNew("rmetronome", sched.Config{VBar: vbar, TL: tl, M: 4, N: 2})
	p := cycle.New(pol, 2, nil, nil)
	for i := 0; i < 3; i++ {
		if !p.ClaimTurn(1) {
			t.Fatal("an uncontended claim must succeed")
		}
	}
	if got := p.Group().Turns(1); got != 3 {
		t.Fatalf("Turns(1) = %d after 3 claims, want 3", got)
	}
	roam := cycle.New(sched.MustNew("adaptive", sched.Config{VBar: vbar, TL: tl, M: 3, N: 2}), 2, nil, nil)
	if roam.Group() != nil || !roam.ClaimTurn(0) {
		t.Fatal("a roaming policy has no group and its claims always succeed")
	}
}

func TestProtocolPlacement(t *testing.T) {
	cfg := sched.Config{VBar: vbar, TL: tl, M: 4, N: 2}
	t.Run("placing", func(t *testing.T) {
		p := cycle.New(sched.MustNew("rmetronome", cfg), 2, nil, nil)
		if !p.CanPlace() {
			t.Fatal("rmetronome places")
		}
		p.Adopt([]int{3, 1}, 4)
		got := make([]int, 2)
		p.Placement(got, 4)
		if !sched.PlacementEqual(got, []int{3, 1}) || !p.Holds([]int{3, 1}) || p.Holds([]int{2, 2}) {
			t.Fatalf("placement after Adopt([3 1]) = %v", got)
		}
		// Round-robin dealing skipping full groups: 0→q0, 1→q1, 2→q0, 3→q0.
		for id, want := range []int{0, 1, 0, 0} {
			if h := p.Home(id); h != want {
				t.Fatalf("Home(%d) = %d, want %d", id, h, want)
			}
		}
	})
	t.Run("roaming", func(t *testing.T) {
		pol := sched.MustNew("adaptive", cfg)
		p := cycle.New(pol, 2, nil, nil)
		if p.CanPlace() || !p.Holds([]int{4, 1}) {
			t.Fatal("adaptive cannot place and holds any plan of its total")
		}
		p.Adopt([]int{4, 1}, 5)
		if m := pol.(sched.Resizable).TeamSize(); m != 5 {
			t.Fatalf("Adopt degraded to SetTeamSize(%d), want 5", m)
		}
		got := []int{9, 9}
		p.Placement(got, 5)
		if !sched.PlacementEqual(got, []int{3, 2}) || p.Home(3) != 1 {
			t.Fatalf("balanced placement of 5 = %v, Home(3) = %d", got, p.Home(3))
		}
	})
}

// TestProtocolStepsAllocationFree pins the per-wakeup decision sequence
// at zero allocations on both the lost and the release path.
func TestProtocolStepsAllocationFree(t *testing.T) {
	for _, name := range []string{"adaptive", "fixed", "busypoll", "rmetronome", "worksteal"} {
		cfg := sched.Config{VBar: vbar, TL: tl, M: 4, N: 2, Dephase: true}
		bus := telemetry.NewBus(2, 4)
		cfg.Bus = bus
		p := cycle.New(sched.MustNew(name, cfg), 2, bus, faults.New(4, 2))
		rng := xrand.New(1)
		allocs := testing.AllocsPerRun(200, func() {
			if v, _ := p.Gate(1, false, 0.1); v != cycle.Contend {
				t.Fatal("thread 1 must contend")
			}
			p.ClaimTurn(0)
			q, _ := p.Lost(1, 0, rng)
			p.Release(1, q, 4e-6, 12e-6)
			_ = p.Publish(q) && p.Dark(q)
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per step, want 0", name, allocs)
		}
	}
}
