// Command pbbf regenerates the tables and figures of "Exploring the
// Energy-Latency Trade-off for Broadcasts in Energy-Saving Sensor
// Networks" (Miller, Sengul, Gupta; ICDCS 2005) — plus this repository's
// extension scenarios — from the unified scenario registry.
//
// Usage:
//
//	pbbf -list
//	pbbf -experiment fig8
//	pbbf -experiment all -scale paper -format csv
//	pbbf -experiment all -scale quick -format json
//	pbbf bench -out BENCH.json
//	pbbf bench -out BENCH_new.json -baseline BENCH.json -threshold 0.30
//	pbbf trace -scenario extcompare -point 1 -runs 1 -events packet,radio
//	pbbf sweep -experiment all -scale paper -checkpoint paper.ckpt.json
//	pbbf sweep -experiment all -scale paper -distribute :8099 -format json
//	pbbf worker -coordinator http://coordinator-host:8099
//	pbbf serve -addr :8080 -store results.store -rate-limit 50
//	pbbf loadtest -target http://127.0.0.1:8080 -out LOADTEST.json
//
// Scales: "quick" (CI-sized, seconds), "paper" (the paper's dimensions,
// minutes), and "bench" (the frozen benchmark dimensions behind
// BENCH.json). With -experiment all, every parameter point of every
// scenario fans out across one bounded worker pool; output order is
// deterministic regardless of scheduling. Formats: an aligned text table,
// CSV, JSON (scenario metadata, the assembled table, and per-point
// energy/latency/delivery results), or NDJSON (one line per parameter
// point in enumeration order — the byte-diffable stream the nightly CI
// sweep archives).
//
// The bench subcommand runs every registered scenario sequentially at the
// bench scale, writes the machine-readable report (wall time, ns/point,
// allocations, events fired per scenario), and — when -baseline is given —
// exits non-zero if any scenario regressed more than -threshold against
// it. See docs/BENCHMARKS.md.
//
// The trace subcommand runs one parameter point with the event-level
// recorder attached and streams the result as deterministic NDJSON: a
// header line, every simulation event (frame tx/rx, collision and fade
// drops, duplicate suppression, wake/sleep, energy meter transitions,
// node deaths), a per-node summary per run, and the aggregate result.
// See docs/OBSERVABILITY.md for the schema.
//
// The sweep subcommand is the long-run workhorse: per-point progress on
// stderr and, with -checkpoint, crash-safe resumability — every completed
// point is persisted and skipped on restart. With -distribute it becomes
// the coordinator of a multi-process sweep: `pbbf worker` processes lease
// point batches over HTTP, killed workers' leases are requeued, and the
// merged output is byte-identical to a local run (docs/DISTRIBUTED.md).
// The serve subcommand exposes the registry over HTTP: a sharded result
// cache, optionally tiered over a persistent on-disk result store
// (-store) so a restarted server serves warmed results without
// recomputing, Prometheus metrics on /metrics, and per-client rate
// limiting plus bounded-queue backpressure (429 + Retry-After). The
// loadtest subcommand drives a running server with a mixed hit/miss
// workload and gates its latency percentiles against a committed
// baseline (LOADTEST.json), mirroring the bench gate. See
// docs/SERVING.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"pbbf/internal/bench"
	"pbbf/internal/experiments"
	"pbbf/internal/scenario"
	"pbbf/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := runCtx(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pbbf:", err)
		os.Exit(1)
	}
}

// run is runCtx without cancellation or a progress stream — the entry
// point for the one-shot modes (and most tests).
func run(args []string, out io.Writer) error {
	return runCtx(context.Background(), args, out, io.Discard)
}

// runCtx dispatches the subcommands. out receives experiment output;
// errOut receives progress and operational logs. ctx cancellation stops
// serve and sweep gracefully.
func runCtx(ctx context.Context, args []string, out, errOut io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "bench":
			return runBench(args[1:], out)
		case "trace":
			return runTrace(args[1:], out)
		case "serve":
			return runServe(ctx, args[1:], out, errOut)
		case "sweep":
			return runSweep(ctx, args[1:], out, errOut)
		case "worker":
			return runWorker(ctx, args[1:], out, errOut)
		case "loadtest":
			return runLoadtest(ctx, args[1:], out, errOut)
		}
	}
	fs := flag.NewFlagSet("pbbf", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		experiment = fs.String("experiment", "", "scenario id (e.g. fig8) or \"all\"")
		scaleName  = fs.String("scale", "quick", "scenario scale: quick, paper, bench, or large")
		format     = fs.String("format", "table", "output format: table, csv, json, or ndjson")
		seed       = fs.Uint64("seed", 1, "root random seed")
		workers    = fs.Int("workers", runtime.GOMAXPROCS(0), "worker pool size for the point sweep")
		list       = fs.Bool("list", false, "list available scenarios with their metadata and exit")
		axes       = scenario.AxisFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	reg := experiments.Registry()
	if *list {
		return printList(out, reg)
	}

	// Validate every flag before doing any work, so a bad value always
	// exits non-zero with a message instead of silently running defaults.
	scale, err := scenario.ByName(*scaleName)
	if err != nil {
		return err
	}
	scale.Seed = *seed
	scale.Axes = *axes
	if err := scale.Validate(); err != nil {
		return err
	}

	if err := validFormat(*format); err != nil {
		return err
	}
	if *workers <= 0 {
		return fmt.Errorf("workers must be positive, got %d", *workers)
	}
	if *experiment == "" {
		return fmt.Errorf("missing -experiment (try -list)")
	}

	var selected []scenario.Scenario
	if *experiment == "all" {
		selected = reg.All()
	} else {
		sc, err := reg.ByID(*experiment)
		if err != nil {
			return err
		}
		selected = []scenario.Scenario{sc}
	}

	outputs, err := scenario.RunAll(selected, scale, *workers)
	if err != nil {
		return err
	}
	return emit(out, *format, outputs)
}

// runBench implements the bench subcommand: measure every registered
// scenario at the bench scale, write the report, and optionally gate
// against a baseline.
func runBench(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pbbf bench", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		outPath   = fs.String("out", "BENCH.json", "path to write the benchmark report")
		scaleName = fs.String("scale", "bench", "scenario scale to benchmark at")
		seed      = fs.Uint64("seed", 1, "root random seed")
		workers   = fs.Int("workers", 1, "sweep worker-pool size (1 = scheduler-independent timings)")
		repeats   = fs.Int("repeats", bench.DefaultRepeats, "measurements per scenario; the fastest is recorded")
		baseline  = fs.String("baseline", "", "baseline report to compare against (empty = no gate)")
		threshold = fs.Float64("threshold", 0.30, "per-scenario ns/point and allocs/point regression tolerance vs the baseline")
		heapOut   = fs.String("heap-profile", "", "write a pprof heap profile here after the run (empty = none)")
		traceSink = fs.String("trace", "", "attach the event recorder to every run: \"discard\" records a fully-instrumented report for manual comparison (-overhead-gate is the CI gate); empty = untraced")
		overhead  = fs.Float64("overhead-gate", 0, "measure tracing overhead with interleaved untraced/traced pairs and fail any scenario whose traced arm is more than this fraction slower (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("bench: unexpected arguments %v", fs.Args())
	}
	scale, err := scenario.ByName(*scaleName)
	if err != nil {
		return err
	}
	scale.Seed = *seed
	if *workers <= 0 {
		return fmt.Errorf("workers must be positive, got %d", *workers)
	}
	if *repeats <= 0 {
		return fmt.Errorf("repeats must be positive, got %d", *repeats)
	}
	if *threshold <= 0 {
		return fmt.Errorf("threshold must be positive, got %v", *threshold)
	}
	if *overhead < 0 {
		return fmt.Errorf("overhead-gate must be non-negative, got %v", *overhead)
	}
	if *outPath == "" {
		return fmt.Errorf("missing -out path")
	}
	// Load the baseline before spending benchmark time, so a bad path
	// fails fast and never leaves a half-recorded report behind.
	var base *bench.Report
	if *baseline != "" {
		var err error
		if base, err = bench.ReadFile(*baseline); err != nil {
			return err
		}
	}

	var provider trace.Provider
	switch *traceSink {
	case "":
	case "discard":
		provider = trace.DiscardProvider
	default:
		return fmt.Errorf("bench: unknown -trace sink %q (want \"discard\" or empty)", *traceSink)
	}

	// Overhead-gate mode replaces the normal report: interleaved
	// untraced/traced pairs in this one process, gated on the ratio. Two
	// separate invocations can't gate tracing cost tightly — machine drift
	// between them exceeds any honest bound on the instrumentation itself.
	if *overhead > 0 {
		if *baseline != "" || *traceSink != "" {
			return fmt.Errorf("bench: -overhead-gate measures both arms itself; drop -baseline/-trace")
		}
		orep, err := bench.RunOverhead(experiments.Registry().All(), bench.Config{
			Scale:     scale,
			ScaleName: *scaleName,
			Workers:   *workers,
			Repeats:   *repeats,
			Progress:  out,
		})
		if err != nil {
			return err
		}
		// Only write a report where one was asked for: the default -out
		// names the BENCH.json schema, which this mode does not produce.
		explicitOut := false
		fs.Visit(func(f *flag.Flag) { explicitOut = explicitOut || f.Name == "out" })
		if explicitOut {
			if err := orep.WriteFile(*outPath); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s: %d scenarios\n", *outPath, len(orep.Results))
		}
		var over []bench.OverheadResult
		for _, r := range orep.Results {
			if r.Gated && r.Ratio > 1+*overhead {
				over = append(over, r)
			}
		}
		if len(over) == 0 {
			fmt.Fprintf(out, "tracing overhead within %.0f%% on every gated scenario\n", *overhead*100)
			return nil
		}
		for _, r := range over {
			fmt.Fprintf(out, "TRACE OVERHEAD %-12s %d -> %d ns/pt (%.2fx)\n",
				r.ID, r.UntracedNSPerPoint, r.TracedNSPerPoint, r.Ratio)
		}
		return fmt.Errorf("%d scenario(s) exceed the %.0f%% tracing-overhead gate", len(over), *overhead*100)
	}

	rep, err := bench.Run(experiments.Registry().All(), bench.Config{
		Scale:         scale,
		ScaleName:     *scaleName,
		Workers:       *workers,
		Repeats:       *repeats,
		Progress:      out,
		TraceProvider: provider,
	})
	if err != nil {
		return err
	}
	if err := rep.WriteFile(*outPath); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s: %d scenarios in %.2fs\n",
		*outPath, len(rep.Scenarios), float64(rep.TotalWallNS)/1e9)
	if *heapOut != "" {
		if err := writeHeapProfile(*heapOut); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote heap profile %s\n", *heapOut)
	}

	// The absolute allocation ceiling needs no baseline, so it always runs:
	// the flagship scenarios must stay within the pooled kernel's budget on
	// every bench-scale invocation, not only when someone passes -baseline.
	if viols := bench.CheckCeilings(rep); len(viols) > 0 {
		for _, v := range viols {
			if v.Missing {
				fmt.Fprintf(out, "ALLOC CEILING %-12s missing from the run (ceiling %d allocs/pt)\n", v.ID, v.Ceiling)
				continue
			}
			fmt.Fprintf(out, "ALLOC CEILING %-12s %d allocs/pt exceeds the %d ceiling\n",
				v.ID, v.AllocsPerPoint, v.Ceiling)
		}
		return fmt.Errorf("%d scenario(s) over the %d allocs/point flagship ceiling", len(viols), bench.FlagshipAllocCeiling)
	}

	if base == nil {
		return nil
	}
	if base.CPU != rep.CPU || base.NumCPU != rep.NumCPU {
		fmt.Fprintf(out, "WARNING: hardware mismatch vs baseline (%q/%d cores vs %q/%d cores): "+
			"absolute times are not comparable; see docs/BENCHMARKS.md for the refresh procedure\n",
			base.CPU, base.NumCPU, rep.CPU, rep.NumCPU)
	}
	regs, err := bench.Compare(base, rep, *threshold)
	if err != nil {
		return err
	}
	if len(regs) == 0 {
		fmt.Fprintf(out, "no regressions beyond %.0f%% vs %s\n", *threshold*100, *baseline)
		return nil
	}
	for _, r := range regs {
		switch {
		case r.Ratio == 0:
			fmt.Fprintf(out, "REGRESSION %-12s missing from current run (baseline %d ns/pt)\n",
				r.ID, r.BaseNSPerPoint)
		case r.Metric == "allocs/point":
			fmt.Fprintf(out, "REGRESSION %-12s %d -> %d allocs/pt (%.2fx)\n",
				r.ID, r.BaseAllocsPerPoint, r.CurAllocsPerPoint, r.Ratio)
		default:
			fmt.Fprintf(out, "REGRESSION %-12s %d -> %d ns/pt (%.2fx)\n",
				r.ID, r.BaseNSPerPoint, r.CurNSPerPoint, r.Ratio)
		}
	}
	return fmt.Errorf("%d scenario(s) regressed more than %.0f%% vs %s",
		len(regs), *threshold*100, *baseline)
}

// writeHeapProfile dumps the post-run heap to path for pprof. The GC run
// first makes the profile reflect retained state (the warmed pools), not
// collectable garbage.
func writeHeapProfile(path string) error {
	runtime.GC()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("heap profile: %w", err)
	}
	return f.Close()
}

// printList renders the registry with its metadata: ID, paper artifact,
// title, the protocols it exercises, and the documented parameter space.
func printList(out io.Writer, reg *scenario.Registry) error {
	for _, sc := range reg.All() {
		if _, err := fmt.Fprintf(out, "%-12s %-10s %s\n", sc.ID, sc.Artifact, sc.Title); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(out, "%-12s   protocols: %s\n", "", strings.Join(sc.Protocols, ", ")); err != nil {
			return err
		}
		for _, p := range sc.Params {
			if _, err := fmt.Fprintf(out, "%-12s   %s: %s\n", "", p.Name, p.Desc); err != nil {
				return err
			}
		}
	}
	return nil
}

// validFormat checks the shared -format flag value.
func validFormat(format string) error {
	switch format {
	case "table", "csv", "json", "ndjson":
		return nil
	}
	return fmt.Errorf("unknown format %q (want table, csv, json, or ndjson)", format)
}

// emit renders the run outputs in the requested format.
func emit(out io.Writer, format string, outputs []scenario.Output) error {
	if format == "json" {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(outputs)
	}
	if format == "ndjson" {
		return emitNDJSON(out, outputs)
	}
	for i, o := range outputs {
		if i > 0 {
			fmt.Fprintln(out)
		}
		switch format {
		case "table":
			fmt.Fprint(out, o.Table.Render())
		case "csv":
			fmt.Fprintf(out, "# %s\n", o.Table.Title)
			fmt.Fprint(out, o.Table.CSV())
		}
	}
	return nil
}

// ndjsonLine is one row of the ndjson output: a flat, per-point record in
// deterministic enumeration order — the byte-diffable stream format the
// nightly full-registry CI sweep archives and compares night over night.
// TableFn scenarios (static artifacts with no parameter points) emit one
// line carrying the whole table instead.
type ndjsonLine struct {
	Scenario string                `json:"scenario"`
	Artifact string                `json:"artifact"`
	Point    *scenario.PointOutput `json:"point,omitempty"`
	Table    any                   `json:"table,omitempty"`
}

// emitNDJSON writes one JSON line per parameter point (or per static
// table). Lines follow scenario registration order, then point enumeration
// order, so two runs of the same workload are byte-identical iff their
// results are.
func emitNDJSON(out io.Writer, outputs []scenario.Output) error {
	enc := json.NewEncoder(out)
	for _, o := range outputs {
		if len(o.Points) == 0 {
			if err := enc.Encode(ndjsonLine{
				Scenario: o.Scenario.ID,
				Artifact: o.Scenario.Artifact,
				Table:    o.Table,
			}); err != nil {
				return err
			}
			continue
		}
		for i := range o.Points {
			if err := enc.Encode(ndjsonLine{
				Scenario: o.Scenario.ID,
				Artifact: o.Scenario.Artifact,
				Point:    &o.Points[i],
			}); err != nil {
				return err
			}
		}
	}
	return nil
}
