package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"metronome/internal/stats"
)

// The RxQueue wrapper must forward Len and Cap, or the runner's occupancy
// probe and bus capacity go dark behind it.
func TestTracedQueueForwardsLenCap(t *testing.T) {
	in, err := newLiveInputs(liveSpecs["paced-l3fwd"], 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(nQueues)
	d, err := newDeployment(in, tr)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < nQueues; q++ {
		if got := d.bus.Capacity(q); got != ringCap {
			t.Errorf("queue %d: bus capacity %v through the wrapper, want %d", q, got, ringCap)
		}
	}
	m, err := d.pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if !d.rings[0].Enqueue(m) {
		t.Fatal("enqueue on an empty ring failed")
	}
	if got := tr.queues[0].Len(); got != 1 {
		t.Errorf("wrapper Len = %d after one enqueue, want 1", got)
	}
}

// chanSleeper sleeps until its channel is closed.
type chanSleeper chan struct{}

func (c chanSleeper) Sleep(time.Duration) { <-c }

// The Sleeper wrapper counts a sleep under way up to the moment it is
// read, and nothing once it has returned, so busy time is exact at the
// edges of every slice.
func TestSleeperCountsSleepsUnderWay(t *testing.T) {
	wake := make(chanSleeper)
	s := &sleeper{inner: wake}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Sleep(time.Hour)
	}()
	if err := waitFor("the sleep to start", false, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.inside == 1
	}); err != nil {
		t.Fatal(err)
	}
	ns0, t0 := s.slept()
	time.Sleep(2 * time.Millisecond)
	ns1, t1 := s.slept()
	if ns1-ns0 != t1-t0 {
		t.Errorf("slept grew %d ns over %d ns with one sleep under way", ns1-ns0, t1-t0)
	}
	close(wake)
	<-done
	ns2, _ := s.slept()
	time.Sleep(time.Millisecond)
	if ns3, _ := s.slept(); ns3 != ns2 || ns2 < ns1 {
		t.Errorf("slept read %d, %d then %d after the sleep returned", ns1, ns2, ns3)
	}
	if s.n.Load() != 1 {
		t.Errorf("counted %d sleeps, want 1", s.n.Load())
	}
}

func TestPoissonMeanRate(t *testing.T) {
	const pps, n = 1e6, 1_000_000
	p := newPoisson(7, pps)
	var sum int64
	for i := 0; i < n; i++ {
		sum += p.next()
	}
	rate := n / (float64(sum) / 1e9)
	if math.Abs(rate-pps)/pps > 0.005 {
		t.Errorf("mean rate %.0f pps, want %.0f within 0.5%%", rate, pps)
	}
}

func TestLinHistQuantile(t *testing.T) {
	h := newLinHist(100)
	for v := int64(1); v <= 100; v++ { // 100 lands in the log-bucketed range
		h.add(v)
	}
	h.add(-5) // clamps to 0
	// 101 values, one per bucket: the rank-r value reads mid-bucket; 100
	// reads mid-way through its log bucket [100, 102).
	cases := []struct{ q, want float64 }{
		{0, 0.5}, {0.5, 50.5}, {0.99, 99.5}, {1, 101},
	}
	for _, c := range cases {
		if got := h.quantile(c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := newLinHist(10).quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	// Four values in one bucket spread across it.
	h = newLinHist(10)
	for i := 0; i < 4; i++ {
		h.add(3)
	}
	if got := h.quantile(0.5); got != 3.375 {
		t.Errorf("quantile(0.5) of four 3s = %v, want 3.375", got)
	}
}

func TestLogQuantile(t *testing.T) {
	var h stats.LogHistogram
	for v := uint64(1); v <= 1000; v++ {
		h.Record(v * 1000)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * 1e6
		if got := logQuantile(&h, q); math.Abs(got-want)/want > 1.0/stats.LogHistSub {
			t.Errorf("logQuantile(%v) = %.0f, want %.0f within 1/%d", q, got, want, stats.LogHistSub)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %v", got)
	}
	xs := []float64{9, 3, 7, 1, 5, 10, 2, 8, 4, 6}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.1, 1}, {0.15, 2}, {0.5, 5}, {1, 10}} {
		if got := lowQuantile(xs, c.q); got != c.want {
			t.Errorf("lowQuantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := lowQuantile(nil, 0.1); got != 0 {
		t.Errorf("lowQuantile of none = %v", got)
	}
}

// The reference verdicts agree with the forwarder's table on every flow.
func TestRoutableMatchesLPM(t *testing.T) {
	in, err := newLiveInputs(liveSpecs["paced-l3fwd"], 5)
	if err != nil {
		t.Fatal(err)
	}
	a, err := newL3fwd()
	if err != nil {
		t.Fatal(err)
	}
	var yes int
	for _, k := range in.fs.keys {
		_, ok := a.fwd[0].Table.Lookup(k.Dst)
		if ok != routable(k.Dst) {
			t.Fatalf("%v: LPM says %v, reference %v", k.Dst, ok, routable(k.Dst))
		}
		if ok {
			yes++
		}
	}
	if yes == 0 || yes == len(in.fs.keys) {
		t.Errorf("%d of %d flows routable: both verdicts must occur", yes, len(in.fs.keys))
	}
}

// A short run of every workload passes its checks and reports every
// metric; a traced run too.
func TestSmokeEveryWorkload(t *testing.T) {
	traces := []bool{false, true}
	if testing.Short() {
		traces = traces[:1]
	}
	for _, w := range workloads {
		for _, trace := range traces {
			o := options{workload: w, seed: 3, seconds: 1, trace: trace}
			r, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			res := r.result()
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d errs=%v",
					w, trace, res.Correct, res.Attempted, res.Failed, r.verdict.errs)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(defs))
			}
			if !trace {
				for _, d := range defs {
					if v := res.Metrics[d.name].Value; !(v > 0) {
						t.Errorf("%s: %s = %v, end-to-end metrics must be positive", w, d.name, v)
					}
				}
			}
		}
	}
}

// The application checks catch a result that disagrees with the ground
// truth.
func TestCheckDetectsMismatch(t *testing.T) {
	in, err := newLiveInputs(liveSpecs["paced-l3fwd"], 4)
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDeployment(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.start(); err != nil {
		t.Fatal(err)
	}
	if err := d.stop(); err != nil {
		t.Fatal(err)
	}
	if v := d.check(); len(v.errs) != 0 {
		t.Fatalf("clean run failed its checks: %v", v.errs)
	}
	d.gen.perFlow[0]++
	d.gen.offered.Add(1)
	d.gen.enqueued.Add(1)
	v := d.check()
	if len(v.errs) == 0 || v.failed != 1 {
		t.Errorf("a packet the application never saw passed the checks: failed=%d errs=%v", v.failed, v.errs)
	}
}

// BENCHMARK.json declares exactly the workloads and metrics this program
// prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i])
		}
	}
	for _, c := range []struct {
		json []def
		prog []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.prog) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.json), len(c.prog))
		}
		for i, d := range c.json {
			if d.Name != c.prog[i].name || d.Unit != c.prog[i].unit {
				t.Errorf("metric %d: %s/%s in BENCHMARK.json, %s/%s in the program", i, d.Name, d.Unit, c.prog[i].name, c.prog[i].unit)
			}
		}
	}
}
