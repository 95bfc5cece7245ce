package main

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"pbbf/internal/experiments"
	"pbbf/internal/scenario"
	"pbbf/internal/sim"
	"pbbf/internal/trace"
)

// sweepWorkload is a fixed set of scenarios run at one scale.
type sweepWorkload struct {
	name  string
	scale func() scenario.Scale
	ids   []string
}

// section4IDs are the Section 4 ideal-MAC artifacts plus the extension
// families that run through idealsim; fig7 and fig12 are TableFn jobs.
var section4IDs = []string{"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "exttmac", "extwakeup"}

// netsimIDs are the scenarios whose points run the netsim engine.
var netsimIDs = []string{
	"fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
	"extk", "extadaptive", "extloss", "extcluster", "extcorridor", "extlinkloss",
	"extchurn", "exthetero", "extcompare", "extlifetime", "extharvest",
}

var (
	section4Paper = sweepWorkload{"section4-paper", scenario.Paper, section4IDs}
	section5Paper = sweepWorkload{"section5-paper", scenario.Paper, netsimIDs}
	// section5Large leaves extcluster and the other diversity families out:
	// at large scale extcluster alone runs for many CPU-minutes.
	section5Large = sweepWorkload{"section5-large", scenario.Large,
		[]string{"fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "extcompare"}}
)

// moduleOf names the simulation layer a scenario's points run in.
func moduleOf(id string) string {
	switch {
	case id == "fig6":
		return "percolation"
	case slices.Contains(netsimIDs, id):
		return "netsim"
	default:
		return "idealsim"
	}
}

func (w sweepWorkload) scenarios() ([]scenario.Scenario, error) {
	reg := experiments.Registry()
	scs := make([]scenario.Scenario, 0, len(w.ids))
	for _, id := range w.ids {
		sc, err := reg.ByID(id)
		if err != nil {
			return nil, err
		}
		scs = append(scs, sc)
	}
	return scs, nil
}

// setupProbe is the set-up a fresh process does before a sweep's first
// point can start: build the registry, validate the scale and enumerate
// every point.
func setupProbe(workload string) error {
	sweeps := []sweepWorkload{section4Paper, section5Paper, section5Large}
	i := slices.IndexFunc(sweeps, func(w sweepWorkload) bool { return w.name == workload })
	if i < 0 {
		return fmt.Errorf("no set-up probe for workload %q", workload)
	}
	w := sweeps[i]
	scs, err := w.scenarios()
	if err != nil {
		return err
	}
	s := w.scale()
	if err := s.Validate(); err != nil {
		return err
	}
	for _, sc := range scs {
		if sc.Points != nil {
			if _, err := sc.Points(s); err != nil {
				return err
			}
		}
	}
	return nil
}

// sweepRun is what one timed sweep measured.
type sweepRun struct {
	wall     time.Duration
	done     []time.Duration          // sweep start to each job's result, TableFn jobs included
	points   []time.Duration          // compute time of each intercepted point
	byModule map[string]time.Duration // summed point compute time per layer
	errors   int                      // points whose computation failed
	assemble time.Duration            // last completed job to RunAllCtx return
	digests  map[string]string        // per scenario
	events   uint64                   // simulated events fired
	peakRSS  float64                  // peak resident set during the sweep, MiB
	kinds    kindCounts
}

// sweepOnce runs the scenarios once through scenario.RunAllCtx, timing
// every point through the Intercept hook. A non-nil provider traces every
// simulated run.
func sweepOnce(scs []scenario.Scenario, s scenario.Scale, workers int, provider *countingProvider) (sweepRun, error) {
	r := sweepRun{byModule: make(map[string]time.Duration)}
	var (
		mu              sync.Mutex
		start, lastDone time.Time
	)
	opts := scenario.RunOptions{
		Workers: workers,
		Intercept: func(sc scenario.Scenario, pt scenario.Point, compute func() (scenario.Result, error)) (scenario.Result, bool, error) {
			start := time.Now()
			res, err := compute()
			d := time.Since(start)
			mu.Lock()
			r.points = append(r.points, d)
			r.byModule[moduleOf(sc.ID)] += d
			if err != nil {
				r.errors++
			}
			mu.Unlock()
			return res, false, err
		},
		// OnPoint calls are serialized by the engine.
		OnPoint: func(scenario.PointEvent) {
			lastDone = time.Now()
			r.done = append(r.done, lastDone.Sub(start))
		},
	}
	ctx := context.Background()
	if provider != nil {
		ctx = trace.WithProvider(ctx, provider)
	}
	fired := sim.TotalFired()
	start = time.Now()
	outs, err := scenario.RunAllCtx(ctx, scs, s, opts)
	end := time.Now()
	if err != nil {
		return r, err
	}
	r.wall = end.Sub(start)
	r.assemble = end.Sub(lastDone)
	r.events = sim.TotalFired() - fired
	if provider != nil {
		r.kinds = provider.total()
	}
	r.digests, err = digests(outs)
	return r, err
}

func runSweep(b *bench, w sweepWorkload) error {
	scs, err := w.scenarios()
	if err != nil {
		return err
	}
	if !b.traced {
		probes, err := probeSetup(w.name, 41)
		if err != nil {
			return fmt.Errorf("set-up probe: %w", err)
		}
		b.set("setup_s", median(probes), len(probes))
	}

	// The program must reproduce its committed quick-scale results for
	// every scenario this workload runs.
	g, err := loadGolden(goldenPath)
	if err != nil {
		return err
	}
	quick, err := scenario.RunAll(scs, scenario.Quick(), b.workers)
	if err != nil {
		return err
	}
	for _, out := range quick {
		d := diffGolden(g, out)
		b.check(d == "", "golden: %s", d)
	}

	// -seed is the simulation seed: it draws the fields and every coin.
	// At paper scale it moves a sweep's simulated events by under 0.3%;
	// at large scale the field draws move a sweep's time by a quarter.
	// The scenarios run in a fixed order, so that each result's time to
	// arrive depends on the program and not on the seed.
	s := w.scale()
	s.Seed = b.seed
	var (
		warm, untraced, traced []sweepRun
		rtTraced               runtimeSample
	)
	start := time.Now()
	var last time.Duration
	for i := 0; ; i++ {
		// At least two sweeps of each kind, so that runs can be compared;
		// a sweep that keeps failing ends the phase on time. Another sweep
		// starts only if it would end nearer the deadline than stopping
		// now, so the phase lasts -seconds give or take half a sweep.
		enough := len(untraced) >= 2 && (!b.traced || len(traced) >= 2)
		if time.Since(start)+last/2 >= b.seconds && (enough || b.failed > 0) {
			break
		}
		var provider *countingProvider
		if b.traced && i%2 == 1 {
			provider = new(countingProvider)
		}
		rt0 := readRuntime()
		resetPeakRSS()
		r, err := sweepOnce(scs, s, b.workers, provider)
		r.peakRSS = peakRSSMB()
		rt1 := readRuntime()
		last = r.wall
		b.attempted += max(len(r.done), 1)
		if err != nil {
			b.fail("sweep %d: %v", i, err)
			continue
		}
		if r.errors > 0 {
			b.fail("sweep %d: %d points failed", i, r.errors)
		}
		if i == 0 {
			// The first sweep of a process ran up to a quarter slower than
			// the next ones: it is checked with the others but not timed,
			// and the timed phase starts after it.
			warm = append(warm, r)
			start, last = time.Now(), 0
			continue
		}
		if provider == nil {
			untraced = append(untraced, r)
			continue
		}
		traced = append(traced, r)
		rtTraced.allocBytes += rt1.allocBytes - rt0.allocBytes
		rtTraced.gcCycles += rt1.gcCycles - rt0.gcCycles
		rtTraced.gcCPU += rt1.gcCPU - rt0.gcCPU
		rtTraced.totalCPU += rt1.totalCPU - rt0.totalCPU
	}

	all := slices.Concat(warm, untraced, traced)
	if len(all) == 0 {
		return nil
	}
	ref := all[0]
	for i, r := range all[1:] {
		b.check(maps.Equal(r.digests, ref.digests), "run %d results differ from run 0's: %v, %v", i+1, r.digests, ref.digests)
		b.check(r.events == ref.events, "run %d fired %d simulated events, run 0 fired %d", i+1, r.events, ref.events)
	}

	// Results must not depend on the worker count: one serial sweep over a
	// third of the scenarios, chosen by -seed so that three consecutive
	// seeds cover them all, must repeat the parallel sweeps' results.
	var third []scenario.Scenario
	for _, sc := range scs {
		if uint64(slices.Index(w.ids, sc.ID))%3 == b.seed%3 {
			third = append(third, sc)
		}
	}
	serial, err := sweepOnce(third, s, 1, nil)
	b.check(err == nil, "serial sweep: %v", err)
	for id, d := range serial.digests {
		b.check(d == ref.digests[id], "%s: serial result digest %s differs from the parallel %s", id, d, ref.digests[id])
	}
	for i, r := range traced {
		b.check(r.kinds == traced[0].kinds, "traced run %d event counts %v differ from %v", i, r.kinds, traced[0].kinds)
	}
	b.logf("%s: %d untraced + %d traced sweeps, %d simulated events per sweep, %d scenarios checked serially",
		w.name, len(untraced), len(traced), ref.events, len(serial.digests))

	// Each sweep is one unit of work. A job's latency is the time from the
	// sweep's start until its result is delivered.
	var (
		walls, rss []float64
		latencies  [][]float64
		jobs       int
	)
	for _, r := range untraced {
		walls = append(walls, r.wall.Seconds())
		rss = append(rss, r.peakRSS)
		latencies = append(latencies, seconds(r.done))
		jobs += len(r.done)
	}
	b.logf("%s: sweep walls in seconds: %.3f", w.name, walls)
	if wall := median(walls); wall > 0 {
		b.set("wall_s", wall, len(walls))
		b.set("req_per_s", float64(len(untraced[0].done))/wall, len(walls))
	}
	b.set("peak_rss_mb", median(rss), len(rss))
	b.set("p50_ms", 1e3*unitQuantile(latencies, 0.50), jobs)
	b.set("p99_ms", 1e3*unitQuantile(latencies, 0.99), jobs)

	if b.traced && len(traced) > 0 {
		b.recordTracedSweeps(traced, median(walls))
		b.setRuntime(runtimeSample{}, rtTraced, len(traced))
		measureSimLayers(b)
	}
	return nil
}

// recordTracedSweeps sets the per-layer metrics the traced sweeps give:
// point spans, per-layer compute time, simulated counts and tracing cost.
func (b *bench) recordTracedSweeps(traced []sweepRun, untracedWall float64) {
	var walls, points, busy, assemble []float64
	compute := make(map[string][]float64)
	for _, r := range traced {
		walls = append(walls, r.wall.Seconds())
		ps := seconds(r.points)
		points = append(points, ps...)
		busy = append(busy, sum(ps)/(float64(b.workers)*r.wall.Seconds()))
		assemble = append(assemble, 1e3*r.assemble.Seconds())
		for _, m := range []string{"idealsim", "percolation", "netsim"} {
			compute[m] = append(compute[m], r.byModule[m].Seconds())
		}
	}
	n := len(traced)
	for m, xs := range compute {
		b.set(m+".compute_s", median(xs), n)
	}
	b.set("scenario.point_s.p50", quantile(points, 0.5), len(points))
	b.set("scenario.point_s.max", maxOf(points), len(points))
	b.set("sweep.busy_frac", median(busy), n)
	b.set("scenario.assemble_ms", median(assemble), n)
	if untracedWall > 0 {
		b.set("bench.trace_overhead_frac", median(walls)/untracedWall-1, n)
	}

	k := traced[0].kinds
	b.set("sim.events", float64(traced[0].events), n)
	b.set("phy.tx_frames", float64(k[trace.KindTxData]+k[trace.KindTxATIM]), n)
	b.set("phy.rx_frames", float64(k[trace.KindRxData]+k[trace.KindRxATIM]+k[trace.KindDuplicate]), n)
	b.set("phy.drop_collision", float64(k[trace.KindDropCollision]), n)
	b.set("phy.drop_fade", float64(k[trace.KindDropFade]+k[trace.KindDropLinkFade]), n)
	b.set("mac.deliveries", float64(k[trace.KindDeliver]), n)
	b.set("mac.duplicates", float64(k[trace.KindDuplicate]), n)
	b.set("mac.wakes", float64(k[trace.KindWake]), n)
	b.set("mac.sleeps", float64(k[trace.KindSleep]), n)
	if rx := k[trace.KindRxData] + k[trace.KindDuplicate]; rx > 0 {
		b.set("mac.useful_rx_frac", float64(k[trace.KindDeliver])/float64(rx), n)
	}
}
