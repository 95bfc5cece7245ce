// Command perfbench is the repository's benchmark. It runs one named
// workload through the program's public packages, checks that the outputs
// are right, and prints the workload's metrics; the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with tracing
// off; with -trace 1 they are the per-layer ones from a traced run. See
// README.md for the workloads, the metrics and how they relate.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload section5-paper --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// endToEnd and perLayer name every metric the benchmark prints, with its
// unit, in the order they are printed. A run prints all of one list: a
// metric a workload does not exercise reads 0 (see README.md).
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"req_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"idealsim.compute_s", "s"},
	{"idealsim.run_ms", "ms"},
	{"rng.new_ns", "ns"},
	{"percolation.compute_s", "s"},
	{"percolation.critical_ms", "ms"},
	{"netsim.compute_s", "s"},
	{"netsim.run_ms.paper", "ms"},
	{"sim.ns_per_event", "ns"},
	{"eventq.push_pop_ns", "ns"},
	{"phy.transmit_ns", "ns"},
	{"energy.setstate_ns", "ns"},
	{"topo.build_ms.large", "ms"},
	{"topo.hopdist_ms.large", "ms"},
	{"core.dupfilter_reset_us.large", "us"},
	{"netsim.run_ms.large", "ms"},
	{"sim.events", "count"},
	{"phy.tx_frames", "count"},
	{"phy.rx_frames", "count"},
	{"phy.drop_collision", "count"},
	{"phy.drop_fade", "count"},
	{"mac.deliveries", "count"},
	{"mac.duplicates", "count"},
	{"mac.wakes", "count"},
	{"mac.sleeps", "count"},
	{"mac.useful_rx_frac", "frac"},
	{"scenario.point_s.p50", "s"},
	{"scenario.point_s.max", "s"},
	{"sweep.busy_frac", "frac"},
	{"scenario.assemble_ms", "ms"},
	{"scenario.pointkey_ns", "ns"},
	{"server.encode_ns", "ns"},
	{"store.memory_get_ns", "ns"},
	{"server.ttfb_ms.p50", "ms"},
	{"server.stream_ms.p50", "ms"},
	{"server.lines_per_req", "count"},
	{"server.bytes_per_req", "B"},
	{"store.memory_put_ns", "ns"},
	{"store.disk_put_us", "us"},
	{"store.disk_get_us", "us"},
	{"store.hits", "count"},
	{"store.misses", "count"},
	{"flight.computes", "count"},
	{"scrape.store_hits.memory", "count"},
	{"scrape.store_hits.disk", "count"},
	{"scrape.store_misses.memory", "count"},
	{"scrape.store_misses.disk", "count"},
	{"scrape.store_puts.memory", "count"},
	{"scrape.store_puts.disk", "count"},
	{"scrape.store_errors.memory", "count"},
	{"scrape.store_errors.disk", "count"},
	{"scrape.runs_shed", "count"},
	{"scrape.rate_limited", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "frac"},
	{"bench.trace_overhead_frac", "frac"},
	{"bench.calib_ns", "ns"},
}

type metricDef struct{ name, unit string }

// workloads maps each workload name to its runner. BENCHMARK.json lists
// all but section5-large, which runs by hand (see README.md).
var workloads = map[string]func(*bench) error{
	"section4-paper": func(b *bench) error { return runSweep(b, section4Paper) },
	"section5-paper": func(b *bench) error { return runSweep(b, section5Paper) },
	"section5-large": func(b *bench) error { return runSweep(b, section5Large) },
	"serve-hit":      runServeHit,
}

// bench is one invocation: its settings and everything it measured.
type bench struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	workers  int // sweep workers and serving clients: min(2, nproc)
	log      io.Writer

	metrics   map[string]metric
	samples   map[string]int
	attempted int
	failed    int
	problems  []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) == 3 && os.Args[1] == probeFlag {
		if err := setupProbe(os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// run parses the flags, runs the workload and prints the report. It returns
// 2 on a usage or harness error (no report is printed), 1 when an output
// check failed, and 0 otherwise.
func run(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed     = fs.Uint64("seed", 1, "seed the workload's inputs are drawn from")
		seconds  = fs.Int("seconds", 30, "how long the timed phase runs")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	runWorkload, ok := workloads[*workload]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q (want %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		return 2, fmt.Errorf("want -seconds >= 1 and -trace 0 or 1, no positional arguments")
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		workers:  min(2, runtime.NumCPU()),
		log:      stderr,
		metrics:  make(map[string]metric),
		samples:  make(map[string]int),
	}
	defs := endToEnd
	if b.traced {
		defs = perLayer
	}
	for _, d := range defs {
		b.metrics[d.name] = metric{Unit: d.unit}
	}

	mach := machineRecord()
	calib := calibrate()
	b.set("bench.calib_ns", calib, 5)
	fmt.Fprintf(stderr, "perfbench: %s seed=%d seconds=%d trace=%d calib_ns=%.4f\n",
		b.workload, b.seed, *seconds, *trace, calib)
	spin(b.workers, time.Second)

	if err := runWorkload(b); err != nil {
		return 2, err
	}

	rep := report{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: make(map[string]metric)}
	if rep.Attempted < 1 {
		return 2, fmt.Errorf("workload attempted no operation")
	}
	mach["calib_ns"] = calib
	machLine, err := json.Marshal(mach)
	if err != nil {
		return 2, err
	}
	fmt.Fprintf(stdout, "machine %s\n", machLine)
	for _, p := range b.problems {
		fmt.Fprintf(stdout, "FAIL %s\n", p)
	}
	for _, d := range defs {
		m := b.metrics[d.name]
		rep.Metrics[d.name] = m
		fmt.Fprintf(stdout, "metric %-32s %14.6g %-6s n=%d\n", d.name, m.Value, m.Unit, b.samples[d.name])
	}
	fmt.Fprintf(stdout, "fail_frac %.6g (%d failed of %d attempted)\n",
		float64(rep.Failed)/float64(rep.Attempted), rep.Failed, rep.Attempted)
	line, err := json.Marshal(rep)
	if err != nil {
		return 2, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1, nil
	}
	return 0, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// set records a metric of the current run's list; metrics of the other
// list are ignored, so workload code can record both unconditionally.
func (b *bench) set(name string, value float64, n int) {
	m, ok := b.metrics[name]
	if !ok {
		return
	}
	m.Value = value
	b.metrics[name] = m
	b.samples[name] = n
}

// check counts one output check as attempted, and as failed when ok is
// false.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.fail(format, args...)
	}
}

// fail records a failed operation that was already counted as attempted.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.log, "perfbench: "+format+"\n", args...)
}
