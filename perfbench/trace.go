package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"metronome"
	"metronome/internal/stats"
)

// The traced run times calls into each layer from wrappers the benchmark
// owns: an RxQueue wrapper (ring), a BurstProcessor wrapper (apps), a
// Sleeper wrapper (hrtimer), a policy wrapper registered by name (sched)
// and the generator's own pool and ring calls (mbuf, ring). Nothing inside
// the program is instrumented.

// Span kinds.
const (
	spanBatch   uint8 = iota // generator wake or burst
	spanGet                  // generator GetBurst (mbuf)
	spanEnqueue              // generator EnqueueBurst (ring)
	spanPoll                 // runner PollBurst (ring)
	spanProcess              // runner ProcessBurst (apps)
	spanObserve              // policy ObserveCycle (sched)
	spanSleep                // runner Sleep (hrtimer)
)

var spanNames = [...]string{"gen.batch", "mbuf.GetBurst", "ring.EnqueueBurst", "ring.PollBurst", "apps.ProcessBurst", "sched.ObserveCycle", "hrtimer.Sleep"}

// span is one timed call. Spans of one runner cycle share id (a cycle
// starts at the first poll after a wake and ends with ObserveCycle and the
// sleep that follows); spans of one generator batch share the batch id.
type span struct {
	start, end int64
	id         uint64
	n          int32 // packets moved, where that applies
	q          int8  // queue, or -1
	kind       uint8
}

// maxSpans bounds the in-memory span log; later spans are counted only.
const maxSpans = 1 << 16

// tracer holds the per-layer measurements of one traced deployment.
type tracer struct {
	on      atomic.Bool // the measured window is open
	spans   []span
	next    atomic.Int64
	cycleID atomic.Uint64

	queues []*tracedQueue
	procs  []*tracedProc
	sleep  *sleeper
	pol    []policySlot // per queue, written by that queue's lock holder
	pend   []pending    // per queue: the sleep the last ObserveCycle asked for
}

type policySlot struct {
	calls, ns    int64
	tsNs, rhoSum float64
	_            [32]byte // keep queues' slots off one cache line
}

type pending struct {
	id   atomic.Uint64
	tsNs atomic.Int64
}

func newTracer(queues int) *tracer {
	t := &tracer{
		spans: make([]span, maxSpans),
		pol:   make([]policySlot, queues),
		pend:  make([]pending, queues),
	}
	t.sleep = &sleeper{inner: metronome.GoSleeper{}, t: t, over: metronome.NewTelemetryBus(1, 1)}
	return t
}

func (t *tracer) span(kind uint8, q int, id uint64, start, end int64, n int) {
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		return
	}
	t.spans[i] = span{start: start, end: end, id: id, n: int32(n), q: int8(q), kind: kind}
}

// recorded returns the spans kept and the number seen in all.
func (t *tracer) recorded() ([]span, int64) {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		return t.spans, n
	}
	return t.spans[:n], n
}

// writeSpans writes the kept spans as Chrome trace-event JSON, one lane
// per layer, loadable in Perfetto or chrome://tracing.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	spans, _ := t.recorded()
	fmt.Fprintln(w, `{"traceEvents":[`)
	for i, s := range spans {
		sep := ","
		if i == len(spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, `{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"q":%d,"n":%d}}%s`+"\n",
			spanNames[s.kind], s.kind, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.id, s.q, s.n, sep)
	}
	fmt.Fprintln(w, `]}`)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedQueue wraps one Rx ring. The runner's per-queue trylock serialises
// every PollBurst of a queue, so the fields below have one writer at a time
// with the lock hand-off ordering them; they are read after the runner
// stops. It forwards Len and Cap: the runner finds its occupancy probe and
// the bus capacity through them.
type tracedQueue struct {
	inner metronome.RxRing
	t     *tracer
	q     int

	inCycle   bool
	cycle     uint64
	lastEmpty int64

	polls, empty, pkts, pollNs int64
	vac                        *linHist // µs from an empty poll to the next poll
	depth                      *linHist // ring occupancy at the first poll of a wake
}

func (w *tracedQueue) Len() int { return w.inner.Len() }
func (w *tracedQueue) Cap() int { return w.inner.Cap() }

func (w *tracedQueue) PollBurst(out []*metronome.Mbuf) int {
	on := w.t.on.Load()
	start := metronome.Nanotime()
	if !w.inCycle {
		w.inCycle = true
		w.cycle = w.t.cycleID.Add(1)
		if on {
			if w.lastEmpty != 0 {
				w.vac.add((start - w.lastEmpty) / 1000)
			}
			w.depth.add(int64(w.inner.Len()))
		}
	}
	n := w.inner.PollBurst(out)
	end := metronome.Nanotime()
	if n == 0 {
		w.inCycle = false
		w.lastEmpty = end
	}
	if on {
		w.polls++
		w.pollNs += end - start
		w.pkts += int64(n)
		if n == 0 {
			w.empty++
		}
		w.t.span(spanPoll, w.q, w.cycle, start, end, n)
	}
	return n
}

// tracedProc wraps one queue's application processor.
type tracedProc struct {
	metronome.BurstProcessor
	queue           *tracedQueue
	calls, pkts, ns int64
}

func (w *tracedProc) ProcessBurst(ms []*metronome.Mbuf, v []metronome.Verdict) {
	if !w.queue.t.on.Load() {
		w.BurstProcessor.ProcessBurst(ms, v)
		return
	}
	start := metronome.Nanotime()
	w.BurstProcessor.ProcessBurst(ms, v)
	end := metronome.Nanotime()
	w.calls++
	w.pkts += int64(len(ms))
	w.ns += end - start
	w.queue.t.span(spanProcess, w.queue.q, w.queue.cycle, start, end, len(ms))
}

// sleeper wraps the runner's sleep service, shared by all its goroutines.
// It counts its calls (every call ends in one wake-up of a retrieval
// goroutine) and the time spent in them. With a tracer it also records
// each sleep's oversleep and span.
type sleeper struct {
	inner metronome.Sleeper
	n     atomic.Int64
	t     *tracer // nil when untraced
	// over keeps the ns slept beyond each request in a telemetry bus's
	// latency histogram, which takes concurrent writers; traced only.
	over *metronome.TelemetryBus

	mu sync.Mutex
	// done sums the ns of finished sleeps; inside counts the sleeps under
	// way and starts sums their start times, so slept can include the
	// part of each that has passed.
	done, inside, starts int64
}

func (s *sleeper) Sleep(d time.Duration) {
	s.n.Add(1)
	s.mu.Lock()
	start := metronome.Nanotime()
	s.inside++
	s.starts += start
	s.mu.Unlock()
	s.inner.Sleep(d)
	s.mu.Lock()
	end := metronome.Nanotime()
	s.inside--
	s.starts -= start
	s.done += end - start
	s.mu.Unlock()
	if s.t == nil || !s.t.on.Load() {
		return
	}
	s.over.RecordLatency(0, uint64(max(end-start-int64(d), 0)))
	s.t.span(spanSleep, -1, s.t.claimSleep(int64(d)), start, end, 0)
}

// slept returns the ns spent in Sleep up to now by all callers together,
// sleeps under way included, with the time it was read.
func (s *sleeper) slept() (ns, now int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now = metronome.Nanotime()
	return s.done + s.inside*now - s.starts, now
}

// oversleepUs returns the q-quantile of the recorded oversleeps in µs.
func (s *sleeper) oversleepUs(q float64) float64 {
	var h stats.LogHistogram
	s.over.SampleLatency(0, &h)
	return logQuantile(&h, q) / 1e3
}

// claimSleep finds the cycle whose ObserveCycle asked for a sleep of d.
// Lost-race (backup) sleeps match none and get id 0.
func (t *tracer) claimSleep(d int64) uint64 {
	for i := range t.pend {
		p := &t.pend[i]
		if p.tsNs.Load() == d {
			if id := p.id.Swap(0); id != 0 {
				return id
			}
		}
	}
	return 0
}

// tracedPolicy wraps a scheduling policy built from the registry. Only the
// lock holder of queue q calls ObserveCycle(q), so each queue's slot has a
// single writer at a time.
type tracedPolicy struct {
	metronome.SchedPolicy
	t *tracer
}

func (p *tracedPolicy) ObserveCycle(q int, busy, vacation float64) float64 {
	start := metronome.Nanotime()
	ts := p.SchedPolicy.ObserveCycle(q, busy, vacation)
	end := metronome.Nanotime()
	if !p.t.on.Load() {
		return ts
	}
	s := &p.t.pol[q]
	s.calls++
	s.ns += end - start
	s.tsNs += ts * 1e9
	s.rhoSum += p.SchedPolicy.Rho(q)
	var id uint64
	if q < len(p.t.queues) {
		id = p.t.queues[q].cycle
	}
	p.t.pend[q].id.Store(id)
	p.t.pend[q].tsNs.Store(int64(time.Duration(ts * float64(time.Second))))
	p.t.span(spanObserve, q, id, start, end, 0)
	return ts
}

// tracedPolicyName is the registry name of the traced adaptive policy.
const tracedPolicyName = "perfbench-traced-adaptive"

// registerPolicy points the registry's traced policy at this tracer; the
// next deployment that names tracedPolicyName gets the wrapper.
func (t *tracer) registerPolicy() {
	metronome.RegisterPolicy(tracedPolicyName, func(cfg metronome.SchedConfig) metronome.SchedPolicy {
		inner, err := metronome.NewPolicy(metronome.PolicyAdaptive, cfg)
		if err != nil {
			panic(err) // the adaptive policy is always registered
		}
		return &tracedPolicy{SchedPolicy: inner, t: t}
	})
}

// policyTotals sums the per-queue policy slots.
func (t *tracer) policyTotals() (calls, ns int64, tsNs, rho float64) {
	for i := range t.pol {
		s := &t.pol[i]
		calls += s.calls
		ns += s.ns
		tsNs += s.tsNs
		rho += s.rhoSum
	}
	return
}
