package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"metronome"
	"metronome/internal/stats"
)

// liveSpec describes one workload on the live runner.
type liveSpec struct {
	flowatcher bool    // application: FloWatcher, else l3fwd
	flows      int     // distinct flows
	pps        float64 // offered load, packets per second
}

var liveSpecs = map[string]liveSpec{
	"paced-l3fwd":      {flows: 256, pps: 1e6},
	"paced-flowatcher": {flowatcher: true, flows: 1 << 20, pps: 1e6},
}

const (
	// poolSize covers both rings, the runner's three recycler caches and
	// the generator's cache (each holds up to 511 buffers) with headroom.
	poolSize = 8192
	// latBuckets bounds the exact latency histograms: 1 µs buckets up to
	// 32.8 ms, larger values are kept as overflow.
	latBuckets = 1 << 15
	// setups is how many times a run builds a deployment to time set-up.
	setups = 15
	// busySliceQ picks the one-second slice whose busy time per packet
	// is reported: host interference (other tenants, the kernel) only ever
	// adds time, so a low quantile over the slices is the data path's cost
	// with the least of it.
	busySliceQ = 0.1
	// stepTimeout bounds every wait on the program (first packet, drain,
	// warm-up).
	stepTimeout = 20 * time.Second
)

// liveInputs is everything a run generates from its seed before any
// deployment exists; set-up time does not include it.
type liveInputs struct {
	spec  liveSpec
	fs    *flowSet
	order []int32
	seed  int64
}

func newLiveInputs(spec liveSpec, seed int64) (*liveInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	fs, err := newFlowSet(rng, spec.flows, !spec.flowatcher)
	if err != nil {
		return nil, err
	}
	return &liveInputs{spec: spec, fs: fs, order: flowOrder(rng, spec.flows), seed: seed}, nil
}

// latProc records, for every packet, the time from its stamp (the time it
// was due) to the entry of ProcessBurst, into the histogram of the current
// one-second slice of the window. One per queue; see tracedQueue for why a
// single writer at a time is guaranteed.
type latProc struct {
	metronome.BurstProcessor
	pkts atomic.Int64            // packets handed to the application
	cur  atomic.Pointer[linHist] // µs; nil outside the window
}

func (l *latProc) ProcessBurst(ms []*metronome.Mbuf, v []metronome.Verdict) {
	l.pkts.Add(int64(len(ms)))
	if h := l.cur.Load(); h != nil {
		now := metronome.Nanotime()
		for _, m := range ms {
			h.add((now - m.RxStampNs) / 1000)
		}
	}
	l.BurstProcessor.ProcessBurst(ms, v)
}

// deployment is one live pipeline built with production defaults: SPSC
// rings from NewRxRing, NewProcRunner with a nil emit (so the runner's
// per-goroutine recycler returns buffers), RunnerConfig{} plus a telemetry
// bus. A traced deployment swaps in the wrappers of trace.go.
type deployment struct {
	in     *liveInputs
	pool   *metronome.Pool
	rings  []metronome.RxRing
	bus    *metronome.TelemetryBus
	app    appUnderTest
	lat    []*latProc
	sleep  *sleeper
	runner *metronome.Runner
	gen    *generator
	tr     *tracer

	cancel  context.CancelFunc
	runDone chan struct{}
}

func newDeployment(in *liveInputs, tr *tracer) (*deployment, error) {
	d := &deployment{
		in:    in,
		pool:  metronome.NewPool(poolSize),
		bus:   metronome.NewTelemetryBus(nQueues, 3),
		tr:    tr,
		rings: make([]metronome.RxRing, nQueues),
	}
	for q := range d.rings {
		r, err := metronome.NewRxRing(ringCap, 1, 1)
		if err != nil {
			return nil, fmt.Errorf("build ring: %w", err)
		}
		d.rings[q] = r
	}
	if in.spec.flowatcher {
		d.app = newFlowatcher()
	} else {
		a, err := newL3fwd()
		if err != nil {
			return nil, err
		}
		d.app = a
	}
	appProcs := d.app.procs()
	queues := make([]metronome.RxQueue, nQueues)
	procs := make([]metronome.BurstProcessor, nQueues)
	cfg := metronome.RunnerConfig{Bus: d.bus}
	for q := range queues {
		queues[q] = d.rings[q]
		p := appProcs[q]
		if tr != nil {
			tq := &tracedQueue{inner: d.rings[q], t: tr, q: q, vac: newLinHist(latBuckets), depth: newLinHist(ringCap + 1)}
			tp := &tracedProc{BurstProcessor: p, queue: tq}
			tr.queues = append(tr.queues, tq)
			tr.procs = append(tr.procs, tp)
			queues[q], p = tq, tp
		}
		lp := &latProc{BurstProcessor: p}
		d.lat = append(d.lat, lp)
		procs[q] = lp
	}
	d.sleep = &sleeper{inner: metronome.GoSleeper{}}
	if tr != nil {
		tr.registerPolicy()
		cfg.Policy = tracedPolicyName
		d.sleep = tr.sleep
	}
	cfg.Sleeper = d.sleep
	d.runner = metronome.NewProcRunner(queues, procs, nil, cfg)
	d.gen = &generator{
		fs:      in.fs,
		rings:   d.rings,
		pool:    d.pool,
		bus:     d.bus,
		arr:     newPoisson(in.seed+1, in.spec.pps),
		order:   in.order,
		tr:      tr,
		perFlow: make([]uint32, len(in.fs.keys)),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if tr != nil {
		d.gen.layer.lag = newLinHist(latBuckets)
	}
	return d, nil
}

// waitFor polls cond until it holds or stepTimeout passes. With spin set
// it yields between polls instead of sleeping, for waits that are timed.
func waitFor(what string, spin bool, cond func() bool) error {
	deadline := time.Now().Add(stepTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		if spin {
			runtime.Gosched()
		} else {
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// start runs the generator until its first packet is on a ring, then the
// runner, and returns once the application has been handed a packet.
func (d *deployment) start() error {
	go d.gen.run()
	if err := waitFor("the first enqueue", true, func() bool { return d.gen.enqueued.Load() > 0 }); err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	d.runDone = make(chan struct{})
	go func() {
		defer close(d.runDone)
		d.runner.Run(ctx)
	}()
	return waitFor("the first delivered packet", true, func() bool { return d.delivered() > 0 })
}

// stop halts the generator, lets the runner drain everything enqueued,
// then stops the runner and waits for all of its goroutines.
func (d *deployment) stop() error {
	close(d.gen.stop)
	<-d.gen.done
	if d.runDone == nil {
		return nil // start failed before the runner ran
	}
	err := waitFor("the rings to drain", false, func() bool {
		return d.delivered() >= d.gen.enqueued.Load()
	})
	d.cancel()
	<-d.runDone
	return err
}

// warm runs the deployment until its caches are warm: one second, and for
// FloWatcher first until every flow has an entry in the flow table.
func (d *deployment) warm() error {
	if d.in.spec.flowatcher {
		all := int64(2 * len(d.in.fs.keys))
		if err := waitFor("every flow to be seen", false, func() bool { return d.gen.enqueued.Load() >= all }); err != nil {
			return err
		}
	}
	time.Sleep(time.Second)
	return nil
}

// delivered counts the packets handed to the application so far.
func (d *deployment) delivered() int64 {
	var n int64
	for _, l := range d.lat {
		n += l.pkts.Load()
	}
	return n
}

// snap is one reading of the counters a window is measured from.
type snap struct {
	wall, cpu, pkts, sleeps int64
	slept                   int64 // ns the retrieval goroutines spent in Sleep
	cycles, tries, bsy      uint64
	offered, dropped        int64
}

func (d *deployment) snap() snap {
	st := &d.runner.Stats
	slept, wall := d.sleep.slept()
	return snap{
		wall:    wall,
		slept:   slept,
		cpu:     processCPUNs(),
		pkts:    d.delivered(),
		sleeps:  d.sleep.n.Load(),
		cycles:  st.Cycles.Load(),
		tries:   st.Tries.Load(),
		bsy:     st.BusyTries.Load(),
		offered: d.gen.offered.Load(),
		dropped: d.gen.dropped.Load(),
	}
}

// window is what one measured window of a live deployment yielded.
type window struct {
	first, last snap
	team        int // retrieval goroutines
	step        time.Duration
	busyNs      []float64 // per one-second slice: retrieval busy ns per packet
	mpps, cpuNs []float64 // per one-second slice, for the notes
	// baseHeapMB is the in-use heap before the deployment was built (the
	// generated inputs and the window's own histograms); peakHeapMB the
	// largest seen at a slice end.
	baseHeapMB, peakHeapMB float64
	lat                    [][]*linHist // per slice, per queue; read after stop
	busLat                 stats.LogHistogram
	// Traced runs only.
	mallocs, gcs uint64
}

func (w *window) wallS() float64      { return float64(w.last.wall-w.first.wall) / 1e9 }
func (w *window) pkts() float64       { return float64(w.last.pkts - w.first.pkts) }
func (w *window) cpuNsTotal() float64 { return float64(w.last.cpu - w.first.cpu) }

// busy is the time the retrieval goroutines spent outside Sleep between
// two readings: the CPU the Metronome loop holds, wake-up costs excluded.
func (w *window) busy(a, b snap) float64 {
	return float64(w.team)*float64(b.wall-a.wall) - float64(b.slept-a.slept)
}

// newWindow allocates a window of seconds, read in one-second slices. It
// is allocated before the deployment, so that the heap the deployment
// adds can be told from the window's own histograms.
func newWindow(seconds float64) *window {
	slices := int(math.Max(1, math.Round(seconds)))
	w := &window{
		step: time.Duration(seconds / float64(slices) * float64(time.Second)),
		lat:  make([][]*linHist, slices),
	}
	for i := range w.lat {
		w.lat[i] = make([]*linHist, nQueues)
		for q := range w.lat[i] {
			w.lat[i][q] = newLinHist(latBuckets)
		}
	}
	return w
}

// measure runs the window. Rates and costs are taken over the whole
// window, latency percentiles per slice (so that one bad second moves the
// median of slices by one rank only).
func (d *deployment) measure(w *window) {
	w.team = d.runner.TeamSize()
	var before stats.LogHistogram
	for q := 0; q < nQueues; q++ {
		d.bus.SampleLatency(q, &before)
	}
	var ms0 runtime.MemStats
	if d.tr != nil {
		runtime.ReadMemStats(&ms0)
		d.tr.on.Store(true)
	}
	w.first = d.snap()
	prev := w.first
	for _, hs := range w.lat {
		for q, l := range d.lat {
			l.cur.Store(hs[q])
		}
		time.Sleep(w.step)
		s := d.snap()
		w.peakHeapMB = math.Max(w.peakHeapMB, heapInuseMB())
		if n := float64(s.pkts - prev.pkts); n > 0 {
			w.mpps = append(w.mpps, n/float64(s.wall-prev.wall)*1e3)
			w.cpuNs = append(w.cpuNs, float64(s.cpu-prev.cpu)/n)
			w.busyNs = append(w.busyNs, w.busy(prev, s)/n)
		}
		prev = s
	}
	w.last = prev
	for _, l := range d.lat {
		l.cur.Store(nil)
	}
	if d.tr != nil {
		d.tr.on.Store(false)
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		w.mallocs = ms1.Mallocs - ms0.Mallocs
		w.gcs = uint64(ms1.NumGC - ms0.NumGC)
	}
	var after stats.LogHistogram
	for q := 0; q < nQueues; q++ {
		d.bus.SampleLatency(q, &after)
	}
	for i := 0; i < stats.LogHistBuckets; i++ {
		if c := after.CountAt(i) - before.CountAt(i); c > 0 {
			w.busLat.AddBucket(i, c)
		}
	}
}

// latency merges the window's histograms, per slice and in all; call
// after stop.
func (w *window) latency() (all *linHist, slices []*linHist) {
	all = newLinHist(latBuckets)
	for _, hs := range w.lat {
		s := newLinHist(latBuckets)
		for _, h := range hs {
			s.merge(h)
		}
		all.merge(s)
		slices = append(slices, s)
	}
	return all, slices
}

// sliceQuantile is the median over slices of each slice's q-quantile.
func sliceQuantile(slices []*linHist, q float64) float64 {
	xs := make([]float64, len(slices))
	for i, s := range slices {
		xs[i] = s.quantile(q)
	}
	return median(xs)
}

// verdict is the outcome of a deployment's correctness checks.
type verdict struct {
	attempted, failed int64
	errs              []string
}

func (v *verdict) add(o verdict) {
	v.attempted += o.attempted
	v.failed += o.failed
	v.errs = append(v.errs, o.errs...)
}

func (v *verdict) errorf(format string, args ...any) {
	v.errs = append(v.errs, fmt.Sprintf(format, args...))
}

// check runs after stop: packet conservation, the application's results
// against the generator's ground truth, the telemetry bus against the
// benchmark's own counts, and mempool conservation.
func (d *deployment) check() verdict {
	g := d.gen
	offered, enq, dropped := g.offered.Load(), g.enqueued.Load(), g.dropped.Load()
	delivered := d.app.delivered()
	v := verdict{attempted: offered}
	// A packet that is neither delivered nor charged as a drop has failed.
	if lost := offered - delivered - dropped; lost != 0 {
		v.failed = lost
		if lost < 0 {
			v.failed = -lost
		}
		v.errorf("conservation: offered %d != delivered %d + dropped %d", offered, delivered, dropped)
	}
	if enq != delivered {
		v.errorf("conservation: enqueued %d, application saw %d", enq, delivered)
	}
	if got := d.runner.Stats.Packets.Load(); got != uint64(delivered) {
		v.errorf("runner counted %d packets, application saw %d", got, delivered)
	}
	if got := d.delivered(); got != delivered {
		v.errorf("ProcessBurst was handed %d packets, application saw %d", got, delivered)
	}
	v.errs = append(v.errs, d.app.check(d.in.fs, g.perFlow)...)
	var rx, drops uint64
	for q := 0; q < nQueues; q++ {
		rx += d.bus.Rx(q)
		drops += d.bus.Drops(q)
	}
	if rx != uint64(delivered) || drops != uint64(dropped) {
		v.errorf("telemetry: bus rx %d drops %d, benchmark delivered %d dropped %d", rx, drops, delivered, dropped)
	}
	if d.pool.Available() != d.pool.Size() {
		v.errorf("mempool: %d of %d buffers back after stop", d.pool.Available(), d.pool.Size())
	}
	return v
}

// checkBusLatency compares the bus histogram's median over the window with
// the benchmark's own: they must agree within the bus histogram's bucket
// width (1/32) plus 10 µs for the gap between the runner's poll-time read
// and ProcessBurst entry.
func checkBusLatency(v *verdict, w *window, own *linHist) {
	ownP50 := own.quantile(0.5)
	busP50 := logQuantile(&w.busLat, 0.5) / 1e3
	if math.Abs(busP50-ownP50) > ownP50/stats.LogHistSub+10 {
		v.errorf("telemetry: bus latency p50 %.1f µs, benchmark p50 %.0f µs", busP50, ownP50)
	}
}

// liveRun is one deployment taken through start, warm-up, a measured
// window, drain and checks.
type liveRun struct {
	d         *deployment
	w         *window
	lat       *linHist   // the whole window
	latSlices []*linHist // per one-second slice
	setupS    float64
	verdict   verdict
}

func runDeployment(in *liveInputs, tr *tracer, seconds float64) (*liveRun, error) {
	w := newWindow(seconds)
	debug.FreeOSMemory()
	w.baseHeapMB = heapInuseMB()
	t0 := time.Now()
	d, err := newDeployment(in, tr)
	if err != nil {
		return nil, err
	}
	if err := d.start(); err != nil {
		return nil, err
	}
	r := &liveRun{d: d, w: w, setupS: time.Since(t0).Seconds()}
	if err := d.warm(); err != nil {
		return nil, errors.Join(err, d.stop())
	}
	d.measure(w)
	if err := d.stop(); err != nil {
		return nil, err
	}
	r.lat, r.latSlices = r.w.latency()
	r.verdict = d.check()
	checkBusLatency(&r.verdict, r.w, r.lat)
	return r, nil
}

// timeSetup builds, starts and stops a deployment, returning the seconds
// from the start of construction to the first delivered packet. It first
// returns all free memory to the OS, so every set-up, like the first one
// in a fresh process, builds on memory it has to fault in.
func timeSetup(in *liveInputs) (float64, error) {
	debug.FreeOSMemory()
	t0 := time.Now()
	d, err := newDeployment(in, nil)
	if err != nil {
		return 0, err
	}
	err = d.start()
	s := time.Since(t0).Seconds()
	return s, errors.Join(err, d.stop())
}

func runLive(o options, spec liveSpec, out *report) error {
	in, err := newLiveInputs(spec, o.seed)
	if err != nil {
		return err
	}
	if !o.trace {
		r, err := runDeployment(in, nil, o.seconds)
		if err != nil {
			return err
		}
		rss := maxRSSMB()
		setup := []float64{r.setupS}
		for len(setup) < setups {
			s, err := timeSetup(in)
			if err != nil {
				return err
			}
			setup = append(setup, s)
		}
		out.verdict = r.verdict
		w := r.w
		out.set("setup_s", median(setup))
		out.set("delivered_mpps", w.pkts()/w.wallS()/1e6)
		out.set("busy_ns_per_pkt", lowQuantile(w.busyNs, busySliceQ))
		out.set("wakes_per_kpkt", float64(w.last.sleeps-w.first.sleeps)/w.pkts()*1e3)
		out.set("lat_p50_us", sliceQuantile(r.latSlices, 0.5))
		out.set("lat_p99_us", sliceQuantile(r.latSlices, 0.99))
		out.set("delivered_ratio", 1-float64(w.last.dropped-w.first.dropped)/float64(w.last.offered-w.first.offered))
		out.set("peak_heap_mb", w.peakHeapMB-w.baseHeapMB)
		out.note("latency samples %d (p99 has %d beyond it); bus p50 %.1f µs over %d samples",
			r.lat.n, r.lat.n/100, logQuantile(&w.busLat, 0.5)/1e3, w.busLat.N())
		out.note("process CPU %.1f ns/pkt (%.3f cores), retrieval busy %.3f cores; setup samples (s): %v; heap %.1f MiB before the deployment; peak RSS after the window %.1f MiB",
			w.cpuNsTotal()/w.pkts(), w.cpuNsTotal()/w.wallS()/1e9, w.busy(w.first, w.last)/w.wallS()/1e9, setup, w.baseHeapMB, rss)
		var p99s []float64
		for _, s := range r.latSlices {
			p99s = append(p99s, s.quantile(0.99))
		}
		out.note("per-second slices: Mpps %.4g, cpu ns/pkt %.4g, busy ns/pkt %.4g, p99 µs %.4g", w.mpps, w.cpuNs, w.busyNs, p99s)
		return nil
	}

	// Traced: an untraced deployment, then a traced one, half the time each.
	half := o.seconds / 2
	a, err := runDeployment(in, nil, half)
	if err != nil {
		return err
	}
	out.verdict.add(a.verdict)
	a.d = nil
	runtime.GC()
	tr := newTracer(nQueues)
	b, err := runDeployment(in, tr, half)
	if err != nil {
		return err
	}
	out.verdict.add(b.verdict)
	liveLayers(out, a.w, b)
	out.tr = tr
	return nil
}

// liveLayers fills the per-layer metrics of a traced live run from the
// untraced window a and the traced run b.
func liveLayers(out *report, a *window, b *liveRun) {
	tr, w, g := b.d.tr, b.w, &b.d.gen.layer
	wall := w.wallS()
	pkts := w.pkts()
	perPkt := func(ns int64) float64 { return float64(ns) / pkts }

	out.set("hrtimer.sleeps_per_s", float64(w.last.sleeps-w.first.sleeps)/wall)
	out.set("hrtimer.oversleep_p50_us", tr.sleep.oversleepUs(0.5))
	out.set("hrtimer.oversleep_p99_us", tr.sleep.oversleepUs(0.99))

	calls, obsNs, tsNs, rho := tr.policyTotals()
	if calls > 0 {
		out.set("sched.observe_ns", float64(obsNs)/float64(calls))
		out.set("sched.ts_mean_us", tsNs/float64(calls)/1e3)
		out.set("sched.rho_mean", rho/float64(calls))
	}

	cycles := float64(w.last.cycles - w.first.cycles)
	out.set("runtime.cycles_per_s", cycles/wall)
	if tries := float64(w.last.tries - w.first.tries); tries > 0 {
		out.set("runtime.busy_try_ratio", float64(w.last.bsy-w.first.bsy)/tries)
	}
	if cycles > 0 {
		out.set("runtime.pkts_per_cycle", pkts/cycles)
	}
	vac, depth := newLinHist(latBuckets), newLinHist(ringCap+1)
	var polls, empty, pollNs, procCalls, procPkts, procNs int64
	for i, q := range tr.queues {
		vac.merge(q.vac)
		depth.merge(q.depth)
		polls += q.polls
		empty += q.empty
		pollNs += q.pollNs
		p := tr.procs[i]
		procCalls += p.calls
		procPkts += p.pkts
		procNs += p.ns
	}
	out.set("runtime.vacation_p50_us", vac.quantile(0.5))
	out.set("runtime.vacation_p99_us", vac.quantile(0.99))

	// The ledger: retrieval CPU is the process's CPU less the generator's
	// busy time; what the timed ring, apps and sched calls do not cover is
	// the runtime's own share.
	retrieval := (w.cpuNsTotal() - float64(g.busyNs)) / pkts
	ring, apps, sched := perPkt(pollNs), perPkt(procNs), perPkt(obsNs)
	out.set("runtime.retrieval_ns_per_pkt", retrieval)
	out.set("runtime.self_ns_per_pkt", retrieval-ring-apps-sched)
	out.note("ledger (ns/pkt): retrieval %.1f = ring %.1f + apps %.1f + sched %.1f + runtime self %.1f",
		retrieval, ring, apps, sched, retrieval-ring-apps-sched)

	out.set("ring.poll_ns_per_pkt", ring)
	if polls > 0 {
		out.set("ring.empty_poll_ratio", float64(empty)/float64(polls))
	}
	out.set("ring.depth_at_wake_p99", depth.quantile(0.99))
	if g.enqPkts > 0 {
		out.set("ring.enq_ns_per_pkt", float64(g.enqNs)/float64(g.enqPkts))
	}
	out.set("ring.full_drops", float64(g.refused))
	if g.getPkts > 0 {
		out.set("mbuf.get_ns_per_pkt", float64(g.getNs)/float64(g.getPkts))
	}
	out.set("mbuf.get_short", float64(g.getShort))
	out.set("apps.ns_per_pkt", apps)
	if procCalls > 0 {
		out.set("apps.burst_fill", float64(procPkts)/float64(procCalls*burst))
	}
	out.set("gen.lag_p99_us", g.lag.quantile(0.99))
	out.set("gen.cpu_cores", float64(g.busyNs)/1e9/wall)
	out.set("proc.mallocs_per_pkt", float64(w.mallocs)/pkts)
	out.set("proc.gc_per_s", float64(w.gcs)/wall)
	untraced := a.cpuNsTotal() / a.pkts()
	traced := w.cpuNsTotal() / pkts
	out.set("proc.cpu_ns_per_pkt", untraced)
	out.set("trace.overhead_ns_per_pkt", traced-untraced)
	out.note("tracing overhead: %.1f ns/pkt traced vs %.1f untraced", traced, untraced)
}
