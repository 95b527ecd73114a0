// Command perfbench is the repository's end-to-end benchmark. It drives
// the live sleep&wake runner through the public API with production
// defaults, and the discrete-event twin through Simulate, on one workload
// per run:
//
//	paced-l3fwd       open loop, Poisson arrivals at 1 Mpps into l3fwd
//	paced-flowatcher  the same load over 1M flows into FloWatcher
//	sim-twin          seeded Simulate calls of the discrete-event twin
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it times
// each layer from wrappers of its own and prints the per-layer metrics and
// the tracing overhead. Outputs are checked against ground truth kept by
// the generator, and the telemetry bus against the benchmark's own counts;
// a failed check makes the exit status 1. The last line of standard output
// is the result as one JSON object.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload paced-l3fwd --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// metricDef names one metric and its unit. The lists must match
// BENCHMARK.json (a test checks this).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"delivered_mpps", "Mpps"},
	{"busy_ns_per_pkt", "ns"},
	{"wakes_per_kpkt", "count"},
	{"lat_p50_us", "us"},
	{"lat_p99_us", "us"},
	{"delivered_ratio", "ratio"},
	{"peak_heap_mb", "MiB"},
}

var perLayer = []metricDef{
	{"hrtimer.sleeps_per_s", "1/s"},
	{"hrtimer.oversleep_p50_us", "us"},
	{"hrtimer.oversleep_p99_us", "us"},
	{"sched.observe_ns", "ns"},
	{"sched.ts_mean_us", "us"},
	{"sched.rho_mean", "ratio"},
	{"runtime.cycles_per_s", "1/s"},
	{"runtime.busy_try_ratio", "ratio"},
	{"runtime.pkts_per_cycle", "count"},
	{"runtime.vacation_p50_us", "us"},
	{"runtime.vacation_p99_us", "us"},
	{"runtime.retrieval_ns_per_pkt", "ns"},
	{"runtime.self_ns_per_pkt", "ns"},
	{"ring.poll_ns_per_pkt", "ns"},
	{"ring.empty_poll_ratio", "ratio"},
	{"ring.depth_at_wake_p99", "count"},
	{"ring.enq_ns_per_pkt", "ns"},
	{"ring.full_drops", "count"},
	{"mbuf.get_ns_per_pkt", "ns"},
	{"mbuf.get_short", "count"},
	{"apps.ns_per_pkt", "ns"},
	{"apps.burst_fill", "ratio"},
	{"gen.lag_p99_us", "us"},
	{"gen.cpu_cores", "cores"},
	{"proc.cpu_ns_per_pkt", "ns"},
	{"proc.mallocs_per_pkt", "count"},
	{"proc.gc_per_s", "1/s"},
	{"sim.vsec_per_s", "s/s"},
	{"sim.cycles_per_s", "1/s"},
	{"sim.mallocs_per_vsec", "count"},
	{"trace.overhead_ns_per_pkt", "ns"},
}

var workloads = []string{"paced-l3fwd", "paced-flowatcher", "sim-twin"}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spansDir string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's metrics, notes and checks.
type report struct {
	defs    []metricDef
	values  map[string]float64
	notes   []string
	verdict verdict
	tr      *tracer // traced runs: the spans to write
}

func newReport(trace bool) *report {
	r := &report{defs: endToEnd, values: map[string]float64{}}
	if trace {
		r.defs = perLayer
	}
	return r
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// result renders the JSON object. A metric a workload does not exercise
// (the twin's counters on a live run, a live layer on the twin) reads 0.
func (r *report) result() result {
	res := result{
		Correct:   len(r.verdict.errs) == 0 && r.verdict.failed == 0 && r.verdict.attempted > 0,
		Attempted: r.verdict.attempted,
		Failed:    r.verdict.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range r.defs {
		res.Metrics[d.name] = metric{Value: r.values[d.name], Unit: d.unit}
	}
	return res
}

// print writes the human-readable lines, then the JSON line.
func (r *report) print(w io.Writer, o options) error {
	for _, d := range r.defs {
		v, ok := r.values[d.name]
		if !ok {
			fmt.Fprintf(w, "%s %-30s n/a (reported as 0)\n", o.workload, d.name)
			continue
		}
		fmt.Fprintf(w, "%s %-30s %.6g %s\n", o.workload, d.name, v, d.unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "%s note: %s\n", o.workload, n)
	}
	for _, e := range r.verdict.errs {
		fmt.Fprintf(w, "%s CHECK FAILED: %s\n", o.workload, e)
	}
	b, err := json.Marshal(r.result())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// hostFacts describes what the numbers depend on, including the measured
// floor of a 10 µs time.Sleep.
func hostFacts() string {
	const n = 50
	over := make([]float64, n)
	for i := range over {
		t0 := time.Now()
		time.Sleep(10 * time.Microsecond)
		over[i] = float64(time.Since(t0)-10*time.Microsecond) / 1e3
	}
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d %s %s/%s time.Sleep(10us) oversleep p50=%.0fus",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, median(over))
}

func parseArgs(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "one of "+strings.Join(workloads, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "1: traced run printing per-layer metrics")
	fs.StringVar(&o.spansDir, "spans-dir", "", "directory the traced run writes its spans to (none if empty)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive")
	}
	for _, w := range workloads {
		if w == o.workload {
			return o, nil
		}
	}
	return o, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloads, ", "))
}

// run executes one workload and fills its report.
func run(o options) (*report, error) {
	r := newReport(o.trace)
	var err error
	if spec, ok := liveSpecs[o.workload]; ok {
		err = runLive(o, spec, r)
	} else {
		err = runSim(o, r)
	}
	if err != nil {
		return nil, err
	}
	if r.tr != nil && o.spansDir != "" {
		path := fmt.Sprintf("%s/%s-seed%d.json", o.spansDir, o.workload, o.seed)
		if werr := r.tr.writeSpans(path); werr != nil {
			r.note("spans not written: %v", werr)
		} else {
			_, seen := r.tr.recorded()
			r.note("spans: %s (%d recorded, the first %d kept)", path, seen, min(seen, int64(maxSpans)))
		}
	}
	return r, nil
}

func main() {
	o, err := parseArgs(os.Args[1:])
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		os.Exit(2)
	}
	fmt.Println(hostFacts())
	r, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := r.print(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !r.result().Correct {
		os.Exit(1)
	}
}
