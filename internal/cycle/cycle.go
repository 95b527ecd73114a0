// Package cycle is the Metronome sleep&wake cycle (Listing 2) written once.
// The discrete-event twin (internal/core) and the live goroutine runner
// (internal/runtime) are thin drivers over one Protocol: they feed it
// observations and carry out the actions it returns. One wakeup runs:
//
//  1. Gate: a retired, dead or stalled thread does not contend.
//  2. ClaimTurn plus the driver's trylock decide the race.
//  3. Lost: the loser re-targets a backup queue and sleeps TL.
//  4. The winner drains its queue, unless the queue is Dark.
//  5. Release: the cycle is observed, a backup returns home, and the
//     thread sleeps TS; Released publishes the cycle.
//
// The drivers keep only substrate mechanics: events versus goroutines, the
// trylock, occupancy measurement, the per-packet work and their counters.
// A Protocol holds no per-thread state and allocates nothing per step.
package cycle

import (
	"metronome/internal/faults"
	"metronome/internal/sched"
	"metronome/internal/telemetry"
)

// Verdict is the fault gate's ruling on one wakeup.
type Verdict uint8

// The gate's verdicts.
const (
	Contend Verdict = iota // go on to the race for the queue
	Retired                // outside the team: park
	Dead                   // killed by the fault plane: stop cycling
	Stalled                // preempted: sleep until the returned time
)

// Protocol is the decision half of the cycle for one deployment: the
// policy with its optional extensions resolved once, plus the telemetry and
// fault planes the decisions consult.
type Protocol struct {
	policy  sched.Policy
	group   sched.GroupPolicy // nil unless the policy binds service groups
	dephase sched.Dephaser    // nil unless the policy staggers group wakes
	rebal   sched.Rebalancer  // nil unless plans land per queue
	resize  sched.Resizable   // nil unless the policy adopts team sizes
	bus     *telemetry.Bus
	faults  *faults.Injector
	n       int
}

// New builds the protocol for n queues driven by policy; bus and f may be
// nil. It returns a value so drivers embed it without an allocation.
func New(policy sched.Policy, n int, bus *telemetry.Bus, f *faults.Injector) Protocol {
	p := Protocol{policy: policy, bus: bus, faults: f, n: n}
	p.group, _ = policy.(sched.GroupPolicy)
	p.dephase, _ = policy.(sched.Dephaser)
	p.rebal, _ = policy.(sched.Rebalancer)
	p.resize, _ = policy.(sched.Resizable)
	return p
}

// Policy returns the scheduling discipline.
func (p *Protocol) Policy() sched.Policy { return p.policy }

// Group returns the policy's service-group extension, or nil.
func (p *Protocol) Group() sched.GroupPolicy { return p.group }

// Gate rules whether thread id contends at this wakeup; retired reports
// that it is outside the team, now is the substrate clock in seconds.
// Stalled also returns the stall window's end.
func (p *Protocol) Gate(id int, retired bool, now float64) (Verdict, float64) {
	if retired {
		return Retired, 0
	}
	if f := p.faults; f != nil {
		if f.Dead(id) {
			return Dead, 0
		}
		if until, ok := f.StalledUntil(id); ok && now < until {
			return Stalled, until
		}
	}
	return Contend, 0
}

// ClaimTurn claims queue q's service turn when the policy binds groups and
// succeeds otherwise. The live runner claims before its trylock, as an
// admission filter; the sequential twin claims after winning the lock,
// where the claim cannot fail and Turns(q) stays exact.
func (p *Protocol) ClaimTurn(q int) bool {
	return p.group == nil || p.group.ClaimTurn(q)
}

// Lost is the step of thread id that lost the race for queue q: it returns
// the backup queue to contend next (Sec. IV-E) and TL(q) to sleep first,
// de-phased onto the rotation clock when the policy staggers group wakes.
func (p *Protocol) Lost(id, q int, rng sched.Rand) (next int, sleep float64) {
	next = p.policy.PickBackupQueue(q, rng)
	sleep = p.policy.TL(q)
	if p.dephase != nil {
		sleep = p.dephase.Dephase(id, next, sleep, true)
	}
	return next, sleep
}

// Release is the step of q's lock holder id after serving q for busy
// seconds, following a vacation: the policy observes the cycle and
// re-evaluates TS, and a group member that served a foreign queue returns
// home to sleep its home queue's TS, so each group keeps its size.
func (p *Protocol) Release(id, q int, busy, vacation float64) (next int, sleep float64) {
	next, sleep = q, p.policy.ObserveCycle(q, busy, vacation)
	if p.group != nil {
		if home := p.group.HomeQueue(id); home != q {
			next, sleep = home, p.policy.TS(home)
		}
	}
	if p.dephase != nil {
		sleep = p.dephase.Dephase(id, next, sleep, false)
	}
	return next, sleep
}

// Publish reports whether queue q's telemetry publishes: a bus is attached
// and the fault plane has not frozen q.
func (p *Protocol) Publish(q int) bool {
	return p.bus != nil && (p.faults == nil || !p.faults.TelemetryFrozen(q))
}

// Released publishes the end of thread id's cycle on q: rho, the thread's
// cumulative busy seconds and q's publish sequence unless q is frozen, then
// the heartbeat at now even if it is, since liveness is the thread's.
func (p *Protocol) Released(id, q int, duty, now float64) {
	if p.bus == nil {
		return
	}
	if p.Publish(q) {
		p.bus.SetRho(q, p.policy.Rho(q))
		p.bus.SetThreadBusy(id, duty)
		p.bus.BumpPub(q)
	}
	p.bus.SetHeartbeat(id, now)
}

// Dark reports whether queue q is blacked out: its lock winner sees an
// empty queue while the backlog builds.
func (p *Protocol) Dark(q int) bool {
	return p.faults != nil && p.faults.QueueDark(q)
}

// Home returns thread id's home queue under the current placement: the
// group layout's home, or id modulo N for roaming policies.
func (p *Protocol) Home(id int) int {
	if p.group != nil {
		return p.group.HomeQueue(id)
	}
	return id % p.n
}

// CanPlace reports whether placement plans land per queue
// (sched.Rebalancer); other policies degrade a plan to its total.
func (p *Protocol) CanPlace() bool { return p.rebal != nil }

// Placement fills dst with the per-queue member counts in effect for a team
// of m: the policy's groups when it places, the balanced split otherwise.
func (p *Protocol) Placement(dst []int, m int) {
	if p.rebal != nil {
		copy(dst, p.rebal.Placement())
		return
	}
	clear(dst)
	for i := 0; i < m; i++ {
		dst[i%len(dst)]++
	}
}

// Holds reports whether the policy already holds the plan sizes; a policy
// that cannot place holds only a total, which the caller compares.
func (p *Protocol) Holds(sizes []int) bool {
	return p.rebal == nil || sched.PlacementEqual(p.rebal.Placement(), sizes)
}

// Adopt hands the normalised plan sizes, of total members, to the policy.
func (p *Protocol) Adopt(sizes []int, total int) {
	if p.rebal != nil {
		p.rebal.SetPlacement(sizes)
	} else if p.resize != nil {
		p.resize.SetTeamSize(total)
	}
}
