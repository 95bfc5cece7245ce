package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"

	"pbbf/internal/experiments"
	"pbbf/internal/scenario"
	"pbbf/internal/trace"
)

// traceHeader is the first NDJSON line of a trace stream: everything
// needed to re-run the exact point that produced the events below it.
type traceHeader struct {
	Type     string `json:"type"`
	Scenario string `json:"scenario"`
	Artifact string `json:"artifact"`
	Scale    string `json:"scale"`
	Seed     uint64 `json:"seed"`
	scenario.Axes
	Point      int                `json:"point"`
	Series     string             `json:"series"`
	X          float64            `json:"x"`
	Params     map[string]float64 `json:"params"`
	DurationNS int64              `json:"duration_ns"`
	Events     string             `json:"events"`
}

// traceResult is the final NDJSON line: the point's aggregate result plus
// the event accounting (total recorded vs emitted after -events filtering).
type traceResult struct {
	Type string `json:"type"`
	scenario.Result
	Runs          int `json:"runs"`
	EventsTotal   int `json:"events_total"`
	EventsEmitted int `json:"events_emitted"`
}

// runTrace implements the trace subcommand: run one parameter point of one
// scenario with the event recorder attached and emit the deterministic
// NDJSON stream — header, per-run events, per-run per-node summaries, and
// the aggregate result. The stream is byte-identical across invocations
// (and worker counts: a single point always computes serially), so CI
// diffs it against committed goldens.
func runTrace(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pbbf trace", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		scenarioID = fs.String("scenario", "", "scenario id to trace (e.g. fig13, extcompare)")
		pointIdx   = fs.Int("point", 0, "zero-based point index within the scenario's parameter space")
		scaleName  = fs.String("scale", "quick", "scenario scale: quick, paper, bench, or large")
		seed       = fs.Uint64("seed", 1, "root random seed")
		runs       = fs.Int("runs", 1, "number of runs to capture events for (0 = all runs of the point)")
		events     = fs.String("events", "all", "comma-separated event groups to emit: packet, radio, energy, or all")
		listPoints = fs.Bool("list-points", false, "list the scenario's point indices and exit")
		workers    = fs.Int("workers", runtime.GOMAXPROCS(0), "accepted for CLI parity; a single point is always computed by one worker")
		axes       = scenario.AxisFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("trace: unexpected arguments %v", fs.Args())
	}
	if *scenarioID == "" {
		return fmt.Errorf("trace: missing -scenario (try pbbf -list)")
	}
	if *runs < 0 {
		return fmt.Errorf("trace: runs must be non-negative, got %d", *runs)
	}
	if *workers <= 0 {
		return fmt.Errorf("workers must be positive, got %d", *workers)
	}
	group, err := parseEventGroups(*events)
	if err != nil {
		return err
	}
	scale, err := scenario.ByName(*scaleName)
	if err != nil {
		return err
	}
	scale.Seed = *seed
	scale.Axes = *axes
	if err := scale.Validate(); err != nil {
		return err
	}
	sc, err := experiments.Registry().ByID(*scenarioID)
	if err != nil {
		return err
	}
	if !sc.PointBased() {
		return fmt.Errorf("trace: scenario %s is a static table and has no simulation to trace", sc.ID)
	}
	pts, err := sc.Points(scale)
	if err != nil {
		return err
	}
	if *listPoints {
		return printPoints(out, sc.ID, pts)
	}
	if *pointIdx < 0 || *pointIdx >= len(pts) {
		return fmt.Errorf("trace: point %d out of range (scenario %s has %d points; see -list-points)",
			*pointIdx, sc.ID, len(pts))
	}
	pt := pts[*pointIdx]

	collector := &trace.Collector{MaxRuns: *runs}
	ctx := trace.WithProvider(context.Background(), collector)
	res, err := sc.ComputePoint(ctx, scale, pt)
	if err != nil {
		return err
	}
	slabs := collector.Runs()
	total := 0
	for _, slab := range slabs {
		total += len(slab.Events)
	}
	if total == 0 {
		return fmt.Errorf("trace: scenario %s recorded no events (only network-simulator scenarios emit a trace)", sc.ID)
	}

	w := bufio.NewWriterSize(out, 1<<16)
	enc := json.NewEncoder(w)
	if err := enc.Encode(traceHeader{
		Type:       "header",
		Scenario:   sc.ID,
		Artifact:   sc.Artifact,
		Scale:      *scaleName,
		Seed:       *seed,
		Axes:       scale.Axes,
		Point:      *pointIdx,
		Series:     pt.Series,
		X:          pt.X,
		Params:     pt.Params,
		DurationNS: scale.NetDuration.Nanoseconds(),
		Events:     *events,
	}); err != nil {
		return err
	}
	emitted := 0
	buf := make([]byte, 0, 256)
	for _, slab := range slabs {
		for _, ev := range slab.Events {
			if ev.Kind.Group()&group == 0 {
				continue
			}
			emitted++
			buf = trace.AppendNDJSON(buf[:0], slab.Run, ev)
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
		for _, s := range trace.Summarize(slab.Events, scale.NetDuration) {
			buf = trace.AppendSummaryNDJSON(buf[:0], slab.Run, s)
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
	}
	if err := enc.Encode(traceResult{
		Type:          "result",
		Result:        res,
		Runs:          len(slabs),
		EventsTotal:   total,
		EventsEmitted: emitted,
	}); err != nil {
		return err
	}
	return w.Flush()
}

// parseEventGroups resolves the -events flag into a group mask.
func parseEventGroups(s string) (trace.Group, error) {
	var g trace.Group
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(part) {
		case "all":
			g |= trace.GroupAll
		case "packet":
			g |= trace.GroupPacket
		case "radio":
			g |= trace.GroupRadio
		case "energy":
			g |= trace.GroupEnergy
		case "":
		default:
			return 0, fmt.Errorf("trace: unknown event group %q (want packet, radio, energy, or all)", strings.TrimSpace(part))
		}
	}
	if g == 0 {
		return 0, fmt.Errorf("trace: -events selected no groups")
	}
	return g, nil
}

// printPoints lists a scenario's parameter points with the indices the
// -point flag addresses.
func printPoints(out io.Writer, id string, pts []scenario.Point) error {
	for i, pt := range pts {
		keys := make([]string, 0, len(pt.Params))
		for k := range pt.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, " %s=%v", k, pt.Params[k])
		}
		if _, err := fmt.Fprintf(out, "%s[%d] series=%q x=%v%s\n", id, i, pt.Series, pt.X, sb.String()); err != nil {
			return err
		}
	}
	return nil
}
