package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"metronome"
	"metronome/internal/stats"
)

const (
	// simDuration is the virtual time each Simulate call covers.
	simDuration = 100 * time.Millisecond
	// simSetups is how many times a pass builds every case to time
	// set-up: one build takes about 20 µs, too short to time alone.
	simSetups = 50
)

// simCase is one seeded Simulate call of the sim-twin workload.
type simCase struct {
	name     string
	cfg      metronome.SimConfig
	arrivals []metronome.Traffic
}

// simCases is the workload's fixed set: 10 Gbps and 1 Gbps of 64 B
// Poisson traffic on one queue at the paper defaults, and a 2-queue
// rmetronome deployment (4 threads) at 10 Gbps split evenly. With policy
// set, the single-queue cases select that registry name instead of the
// default adaptive discipline.
func simCases(seed uint64, policy string) []simCase {
	base := metronome.DefaultSimConfig()
	base.Seed = seed
	c10, c1, rm := base, base, base
	c10.Policy, c1.Policy = policy, policy
	rm.Policy = metronome.PolicyRMetronome
	rm.M = 4
	half := metronome.PoissonTraffic{Lambda: metronome.LineRate64B(10) / 2}
	return []simCase{
		{"10g", c10, []metronome.Traffic{metronome.PoissonTraffic{Lambda: metronome.LineRate64B(10)}}},
		{"1g", c1, []metronome.Traffic{metronome.PoissonTraffic{Lambda: metronome.LineRate64B(1)}}},
		{"rmetronome-2q", rm, []metronome.Traffic{half, half}},
	}
}

// simulate runs one case with a telemetry bus attached, so the twin's
// latency lands in the same exact-bucket histogram the live runner feeds.
func (c simCase) simulate(d time.Duration) (metronome.SimMetrics, *stats.LogHistogram) {
	cfg := c.cfg
	bus := metronome.NewTelemetryBus(len(c.arrivals), cfg.M)
	cfg.Bus = bus
	m := metronome.Simulate(cfg, c.arrivals, d)
	var h stats.LogHistogram
	for q := range c.arrivals {
		bus.SampleLatency(q, &h)
	}
	return m, &h
}

// simSet is one pass over every case.
type simSet struct {
	setupS                   float64 // every case over no virtual time, mean of simSetups
	busyNs                   float64 // modelled busy core-time, virtual ns
	wallNs, cpuNs            int64
	heapMB                   float64 // in-use heap after the pass
	mallocs                  uint64
	served, offered          int64
	cycles, tries, busyTries int64
	vsec                     float64
	lat                      *stats.LogHistogram
	metrics                  []string // per case, for determinism checks
}

func runSimSet(cases []simCase) *simSet {
	s := &simSet{lat: &stats.LogHistogram{}}
	// Set-up: Simulate over no virtual time builds the engine, the queues
	// and the runtime of each case and snapshots them. It is timed on a
	// freshly collected heap: the passes allocate fast enough to keep the
	// collector busy, and its assists would otherwise land in the timing.
	runtime.GC()
	t := time.Now()
	for i := 0; i < simSetups; i++ {
		for _, c := range cases {
			c.simulate(0)
		}
	}
	s.setupS = time.Since(t).Seconds() / simSetups
	// Collected again, so that the heap read after the pass holds only
	// what the pass's Simulate calls allocated.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ms := make([]metronome.SimMetrics, len(cases))
	t0, c0 := metronome.Nanotime(), processCPUNs()
	for i, c := range cases {
		var h *stats.LogHistogram
		ms[i], h = c.simulate(simDuration)
		s.lat.Merge(h)
	}
	s.wallNs, s.cpuNs = metronome.Nanotime()-t0, processCPUNs()-c0
	runtime.ReadMemStats(&ms1)
	for _, m := range ms {
		s.served += m.Served
		s.offered += m.RxPackets + m.Drops
		s.cycles += m.Cycles
		s.tries += m.Tries
		s.busyTries += m.BusyTries
		s.busyNs += m.CPUPercent / 100 * m.Wall * 1e9
		s.vsec += simDuration.Seconds()
		s.metrics = append(s.metrics, fmt.Sprintf("%+v", m))
	}
	s.mallocs = ms1.Mallocs - ms0.Mallocs
	s.heapMB = float64(ms1.HeapInuse) / (1 << 20)
	return s
}

// simWindow runs sets until seconds have passed (at least two, so the
// second pass can be checked against the first for determinism).
func simWindow(cases []simCase, seconds float64, v *verdict) []*simSet {
	var sets []*simSet
	start := time.Now()
	for len(sets) < 2 || time.Since(start).Seconds() < seconds {
		s := runSimSet(cases)
		v.attempted++
		if s.served <= 0 || s.served > s.offered {
			v.failed++
			v.errorf("sim: served %d of %d offered", s.served, s.offered)
		}
		for i, c := range cases {
			if len(sets) > 0 && s.metrics[i] != sets[0].metrics[i] {
				v.errorf("sim %s: the same seed gave different SimMetrics", c.name)
			}
		}
		if len(sets) > 0 {
			s.lat, s.metrics = nil, nil // only the first pass's are kept
		}
		sets = append(sets, s)
	}
	return sets
}

func perSet(sets []*simSet, f func(*simSet) float64) float64 {
	xs := make([]float64, len(sets))
	for i, s := range sets {
		xs[i] = f(s)
	}
	return median(xs)
}

func runSim(o options, out *report) error {
	if !o.trace {
		sets := simWindow(simCases(uint64(o.seed), ""), o.seconds, &out.verdict)
		first := sets[0]
		out.set("setup_s", perSet(sets, func(s *simSet) float64 { return s.setupS }))
		out.set("delivered_mpps", perSet(sets, func(s *simSet) float64 { return float64(s.served) / float64(s.wallNs) * 1e3 }))
		out.set("busy_ns_per_pkt", first.busyNs/float64(first.served))
		out.set("wakes_per_kpkt", float64(first.tries)/float64(first.served)*1e3)
		out.set("lat_p50_us", logQuantile(first.lat, 0.5)/1e3)
		out.set("lat_p99_us", logQuantile(first.lat, 0.99)/1e3)
		out.set("delivered_ratio", float64(first.served)/float64(first.offered))
		var peak float64
		for _, s := range sets {
			peak = math.Max(peak, s.heapMB)
		}
		out.set("peak_heap_mb", peak)
		out.note("peak RSS %.1f MiB", maxRSSMB())
		out.note("%d passes of 3 Simulate calls, %v virtual each; latency and busy time are virtual, %d latency samples; process CPU %.3f ns per simulated packet",
			len(sets), simDuration, first.lat.N(), perSet(sets, func(s *simSet) float64 { return float64(s.cpuNs) / float64(s.served) }))
		return nil
	}

	// Traced: an untraced pass, then one through the policy wrapper, half
	// the time each. Each pass counts one attempt per set of calls.
	half := o.seconds / 2
	a := simWindow(simCases(uint64(o.seed), ""), half, &out.verdict)
	tr := newTracer(nQueues)
	tr.registerPolicy()
	tr.on.Store(true)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b := simWindow(simCases(uint64(o.seed), tracedPolicyName), half, &out.verdict)
	runtime.ReadMemStats(&ms1)
	// The wrapper must not change what the twin computes.
	for i, m := range b[0].metrics {
		if m != a[0].metrics[i] {
			out.verdict.errorf("sim: the traced policy changed SimMetrics of case %d", i)
		}
	}

	out.set("sim.vsec_per_s", perSet(b, func(s *simSet) float64 { return s.vsec / float64(s.wallNs) * 1e9 }))
	out.set("sim.cycles_per_s", perSet(b, func(s *simSet) float64 { return float64(s.cycles) / float64(s.wallNs) * 1e9 }))
	out.set("sim.mallocs_per_vsec", perSet(b, func(s *simSet) float64 { return float64(s.mallocs) / s.vsec }))
	s := b[0]
	out.set("runtime.cycles_per_s", float64(s.cycles)/s.vsec)
	out.set("runtime.busy_try_ratio", float64(s.busyTries)/float64(s.tries))
	out.set("runtime.pkts_per_cycle", float64(s.served)/float64(s.cycles))
	out.set("hrtimer.sleeps_per_s", float64(s.tries)/s.vsec)
	calls, obsNs, tsNs, rho := tr.policyTotals()
	if calls > 0 {
		out.set("sched.observe_ns", float64(obsNs)/float64(calls))
		out.set("sched.ts_mean_us", tsNs/float64(calls)/1e3)
		out.set("sched.rho_mean", rho/float64(calls))
	}
	tr.on.Store(false)
	out.tr = tr
	var served, wallNs int64
	for _, s := range b {
		served += s.served
		wallNs += s.wallNs
	}
	out.set("proc.mallocs_per_pkt", float64(ms1.Mallocs-ms0.Mallocs)/float64(served))
	out.set("proc.gc_per_s", float64(ms1.NumGC-ms0.NumGC)/(float64(wallNs)/1e9))
	untraced := perSet(a, func(s *simSet) float64 { return float64(s.cpuNs) / float64(s.served) })
	traced := perSet(b, func(s *simSet) float64 { return float64(s.cpuNs) / float64(s.served) })
	out.set("proc.cpu_ns_per_pkt", untraced)
	out.set("trace.overhead_ns_per_pkt", traced-untraced)
	out.note("tracing overhead: %.2f ns/pkt traced vs %.2f untraced", traced, untraced)
	return nil
}
