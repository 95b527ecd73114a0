// Package sched is Metronome's sleep&wake policy engine: the one place
// where a scheduling discipline decides how long threads sleep (the short
// timeout TS and the backup timeout TL), how the per-queue load estimate is
// maintained, and which queue a thread that lost a trylock race contends
// next. Both execution substrates — the discrete-event twin in
// internal/core and the live goroutine runtime in internal/runtime —
// delegate those decisions here, so a new discipline is a single
// implementation of Policy (plus a Register call) and is immediately
// available to the simulator, the live runtime, every experiment, and the
// -policy flag of the CLIs.
//
// Policies work in plain float64 seconds; the live runtime converts to
// time.Duration at its edge. All Policy methods must be safe for the
// concurrent access pattern of the live runtime: many readers of TS/Rho at
// any time, but ObserveCycle(q, ...) serialised per queue by the caller
// (only the thread holding queue q's trylock observes its cycles).
package sched

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"metronome/internal/telemetry"
)

// Rand is the slice of randomness a policy may consume; xrand.Rand
// satisfies it in the sim, and the live runtime passes its per-goroutine
// generator.
type Rand interface {
	// Intn returns a uniform int in [0, n).
	Intn(n int) int
}

// Config parameterises a policy for one deployment.
type Config struct {
	// VBar is the target mean vacation period in seconds.
	VBar float64
	// TL is the backup (long) timeout in seconds.
	TL float64
	// TSFixed is the constant short timeout of the fixed discipline; zero
	// falls back to VBar.
	TSFixed float64
	// M is the number of retrieval threads, N the number of Rx queues.
	M, N int
	// Alpha is the EWMA smoothing of the load estimator (eq. 11);
	// zero takes the paper's 0.125.
	Alpha float64
	// BackupSticky makes a losing thread re-contend the same queue
	// instead of re-targeting a random one (the anti-Sec. IV-E strawman).
	BackupSticky bool
	// Bus, when set, gives the policy live queue telemetry: the
	// work-stealing discipline re-targets backups at the queue with the
	// highest *observed occupancy* (nic occupancy in the sim, ring Len in
	// the live runtime) instead of the slower rho EWMA, so stealing reacts
	// within a vacation. Policies must degrade gracefully to their
	// EWMA-driven behaviour when Bus is nil.
	Bus *telemetry.Bus
	// Dephase enables turn-aware wake de-phasing in the shared-queue
	// disciplines: a group member that *lost a race* at service-dominated
	// load re-enters on the rotation clock (B̄/2 + V̄ + d·(V̄+B̄), with d
	// its service-turn distance) instead of backing off a blind rotation
	// r·TS, cutting busy tries while tracking the vacation target better.
	// Winners keep the eq. (13) timeout untouched — see
	// RMetronome.Dephase for the measurements behind that split.
	Dephase bool
}

func (c Config) normalized() Config {
	if c.M < 1 {
		c.M = 1
	}
	if c.N < 1 {
		c.N = 1
	}
	if c.Alpha <= 0 {
		c.Alpha = 0.125
	}
	return c
}

// Policy is one sleep&wake scheduling discipline.
type Policy interface {
	// Name is the registry identifier ("adaptive", "fixed", "busypoll").
	Name() string
	// TS returns queue q's current short timeout in seconds.
	TS(q int) float64
	// TL returns the long timeout a thread sleeps after losing the
	// trylock race on queue q, in seconds.
	TL(q int) float64
	// Rho returns queue q's current load estimate.
	Rho(q int) float64
	// ObserveCycle folds one completed service cycle of queue q (busy and
	// vacation in seconds) into the load estimate and returns the
	// re-evaluated short timeout the serving thread should sleep.
	ObserveCycle(q int, busy, vacation float64) float64
	// PickBackupQueue returns the queue a lost-race thread should contend
	// at its next wakeup.
	PickBackupQueue(cur int, rng Rand) int
	// Estimator exposes the underlying load estimator (observability and
	// test seeding).
	Estimator() *RhoEstimator
}

// GroupPolicy is an optional Policy extension for shared-queue disciplines
// that bind threads into stable per-queue service groups and arbitrate
// service turns with an explicit claim. The cycle protocol both execution
// substrates drive (internal/cycle) probes for it once: when present, a
// thread that finishes a cycle on a foreign queue returns to its home
// queue, and the wake path consults ClaimTurn. In the live runtime the claim runs *before* the queue trylock
// as a cheap admission filter (a failed CAS proves a sibling claimed a
// turn concurrently, so the thread goes straight to the backup path without
// bouncing the queue's lock cache line); in the sequential sim twin the
// claim is taken after the lock check and can never fail, making Turns(q)
// an exact count of the service turns queue q has begun.
type GroupPolicy interface {
	// HomeQueue returns thread id's home queue.
	HomeQueue(thread int) int
	// GroupSize returns how many threads queue q's service group holds.
	GroupSize(q int) int
	// ClaimTurn attempts to CAS-claim queue q's next service turn; false
	// means a sibling claimed a turn between the caller's load and CAS.
	ClaimTurn(q int) bool
	// Turns returns the number of service turns claimed on queue q so far.
	Turns(q int) uint64
}

// Resizable is an optional Policy extension for disciplines that can adopt
// a new thread-team size online — the hook the elastic control plane
// (internal/elastic) drives when it grows or shrinks the team. The queue
// count N is fixed for a deployment; only M moves. Implementations must
// re-derive whatever M-dependent state they hold (eq. (14)'s M/N average,
// r = M/N service-group membership) and republish per-queue timeouts, all
// safe against concurrent TS/Rho readers and per-queue-serialised
// ObserveCycle callers. Every built-in policy implements it.
type Resizable interface {
	// SetTeamSize adopts m retrieval threads (clamped to >= 1).
	SetTeamSize(m int)
	// TeamSize returns the team size the policy currently assumes.
	TeamSize() int
}

// Rebalancer is an optional Resizable extension for disciplines that can
// adopt an *arbitrary* per-queue thread assignment online — the hook the
// placement plane (internal/elastic's placement law) drives when it moves
// members between service groups instead of, or in addition to, moving the
// scalar team size. SetTeamSize remains the degenerate balanced plan:
// SetTeamSize(m) must be exactly SetPlacement(BalancedPlacement(m, N)).
// Implementations swap a complete home/rank/size layout atomically and
// republish per-group timeouts, safe against concurrent TS/Rho readers;
// per-queue state that outlives a layout (service-turn counters, busy-period
// EWMAs) must survive the swap so members re-home without losing history.
type Rebalancer interface {
	Resizable
	// SetPlacement adopts sizes[q] threads homed on queue q (entries are
	// clamped to >= 1 — Sec. IV-E, every queue deserves an attendant); the
	// team size becomes their sum.
	SetPlacement(sizes []int)
	// Placement returns the per-queue group sizes currently in effect.
	Placement() []int
}

// BalancedPlacement spreads m threads over n queues exactly the way the
// legacy thread-id round-robin (thread i homed on queue i % n) did: every
// queue gets m/n members and the first m%n queues one extra. It is the
// plan SetTeamSize degenerates to.
func BalancedPlacement(m, n int) []int {
	if n < 1 {
		n = 1
	}
	if m < 0 {
		m = 0
	}
	sizes := make([]int, n)
	for i := 0; i < m; i++ {
		sizes[i%n]++
	}
	return sizes
}

// NormalizePlacement is THE plan-normalisation rule every placement layer
// shares: project perQueue onto n queues, clamp each entry to at least one
// attendant (Sec. IV-E), and return the normalised sizes with their total.
// rmetronome's SetPlacement and both substrates' ApplyPlacement all
// normalise through here, which is what keeps the sim twin and the live
// runtime bit-identical under the placement equivalence tests.
func NormalizePlacement(perQueue []int, n int) ([]int, int) {
	if n < 1 {
		n = 1
	}
	sizes := make([]int, n)
	total := 0
	for q := 0; q < n; q++ {
		s := 1
		if q < len(perQueue) && perQueue[q] > 1 {
			s = perQueue[q]
		}
		sizes[q] = s
		total += s
	}
	return sizes, total
}

// PackPlacement packs a normalised per-queue plan into one uint64 — byte
// q holds queue q's member count — so the observability plane can record
// a whole placement in a single atomic word at zero allocations. Plans
// that cannot fit (more than 8 queues, a count outside 1..255) return 0,
// which is unambiguous: NormalizePlacement clamps every entry to >= 1,
// so a representable plan never packs to zero. Decode with
// UnpackPlacement; a zero byte terminates the plan.
func PackPlacement(perQueue []int) uint64 {
	if len(perQueue) == 0 || len(perQueue) > 8 {
		return 0
	}
	var p uint64
	for q, m := range perQueue {
		if m < 1 || m > 255 {
			return 0
		}
		p |= uint64(m) << (8 * uint(q))
	}
	return p
}

// UnpackPlacement expands a PackPlacement word back into per-queue
// counts, appending to dst's backing array (pass nil to allocate); the
// zero word (unpackable plan) yields an empty slice.
func UnpackPlacement(p uint64, dst []int) []int {
	dst = dst[:0]
	for ; p != 0; p >>= 8 {
		dst = append(dst, int(p&0xff))
	}
	return dst
}

// PlacementEqual reports whether two per-queue plans place identically.
func PlacementEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Dephaser is an optional Policy extension for disciplines that stagger a
// member's next wake within its service group. The cycle protocol
// (internal/cycle) passes every sleep through Dephase when the policy
// implements it — the release-path sleep after a completed cycle (backup
// false) and the backoff after a lost race (backup true, with a service in
// progress that the adjusted sleep should ride out). A policy without an
// opinion returns ts unchanged.
type Dephaser interface {
	// Dephase returns the possibly adjusted sleep for thread's next wake
	// on queue q, given the policy-computed timeout ts.
	Dephase(thread, q int, ts float64, backup bool) float64
}

// Factory builds a policy instance for a deployment.
type Factory func(Config) Policy

var (
	regMu    sync.RWMutex
	registry = map[string]Factory{}
)

// Register installs a policy under name; later registrations of the same
// name win, so applications can override the built-ins.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	registry[name] = f
}

// New builds the named policy; an empty name means the default adaptive
// discipline.
func New(name string, cfg Config) (Policy, error) {
	if name == "" {
		name = NameAdaptive
	}
	regMu.RLock()
	f, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("sched: unknown policy %q (have %v)", name, Names())
	}
	return f(cfg), nil
}

// MustNew is New for configurations known at compile time; it panics on an
// unknown name.
func MustNew(name string, cfg Config) Policy {
	p, err := New(name, cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Names lists the registered policies, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// base carries the state every built-in discipline shares: the config, the
// load estimator, the cached per-queue TS, and the (elastically resizable)
// team size. cfg.M is the construction-time size; m is the live one.
type base struct {
	cfg Config
	m   atomic.Int64
	est *RhoEstimator
	ts  []atomicF64
}

// init fills b in place (base holds atomics, so it is never copied).
func (b *base) init(cfg Config) {
	cfg = cfg.normalized()
	b.cfg = cfg
	b.est = NewRhoEstimator(cfg.N, cfg.Alpha)
	b.ts = make([]atomicF64, cfg.N)
	b.m.Store(int64(cfg.M))
}

// TeamSize implements Resizable: the thread count the policy assumes.
func (b *base) TeamSize() int { return int(b.m.Load()) }

// SetTeamSize implements Resizable for disciplines whose only M-dependent
// state is the team size itself (fixed, busypoll). Disciplines that derive
// timeouts or group shapes from M re-publish them on top of this.
func (b *base) SetTeamSize(m int) {
	if m < 1 {
		m = 1
	}
	b.m.Store(int64(m))
}

// TS returns the cached short timeout of queue q.
func (b *base) TS(q int) float64 { return b.ts[q].Load() }

// TL returns the configured backup timeout.
func (b *base) TL(q int) float64 { return b.cfg.TL }

// Rho returns queue q's load estimate.
func (b *base) Rho(q int) float64 { return b.est.Rho(q) }

// Estimator exposes the shared estimator.
func (b *base) Estimator() *RhoEstimator { return b.est }

// PickBackupQueue implements the Sec. IV-E random re-targeting (or the
// sticky strawman when configured).
func (b *base) PickBackupQueue(cur int, rng Rand) int {
	if b.cfg.N <= 1 || b.cfg.BackupSticky {
		return cur
	}
	return rng.Intn(b.cfg.N)
}
