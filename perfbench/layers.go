package main

import (
	"runtime"
	"time"

	"pbbf/internal/core"
	"pbbf/internal/energy"
	"pbbf/internal/eventq"
	"pbbf/internal/idealsim"
	"pbbf/internal/mac"
	"pbbf/internal/netsim"
	"pbbf/internal/percolation"
	"pbbf/internal/phy"
	"pbbf/internal/rng"
	"pbbf/internal/scenario"
	"pbbf/internal/sim"
	"pbbf/internal/topo"
)

// The simulation layers are timed on inputs frozen from the workloads'
// configurations: the paper scale's 75×75 grid and Table 2 field, the large
// scale's 10k-node field. The inputs never depend on -seed, so these
// readings compare across runs and commits.
const layerSeed = 20050606

// timePer runs op in batches of n calls, reps times, and returns the median
// nanoseconds per call.
func timePer(reps, n int, op func()) float64 {
	per := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		per = append(per, float64(time.Since(start))/float64(n))
	}
	return median(per)
}

// measureSimLayers times each simulation layer's exported API and records
// the per-layer metrics; a result that changes between repetitions of the
// same frozen input fails the run.
func measureSimLayers(b *bench) {
	paper, large := scenario.Paper(), scenario.Large()
	// Start from a collected heap, so that the sweeps' garbage is not
	// swept during the timings.
	runtime.GC()

	var rngSink uint64
	seed := uint64(0)
	d := timePer(5, 200_000, func() {
		seed++
		rngSink ^= rng.New(seed).Uint64()
	})
	b.set("rng.new_ns", d, 5)

	grid := topo.MustGrid(paper.GridW, paper.GridH)
	icfg := idealsim.Defaults(grid, grid.Center())
	icfg.Params = core.Params{P: 0.5, Q: 0.5}
	icfg.Updates = paper.IdealUpdates
	icfg.Seed = layerSeed
	var first *idealsim.Result
	d = timePer(5, 1, func() {
		res, err := idealsim.Run(icfg)
		if err != nil {
			b.check(false, "idealsim.Run: %v", err)
			return
		}
		if first == nil {
			first = res
		}
		b.check(res.EnergyPerUpdateJ == first.EnergyPerUpdateJ && res.MeanCoverage() == first.MeanCoverage(),
			"idealsim.Run is not repeatable on a frozen input")
	})
	b.set("idealsim.run_ms", d/1e6, 5)

	pgrid := topo.MustGrid(30, 30)
	d = timePer(3, 1, func() {
		if _, err := percolation.CriticalBondRatio(pgrid, pgrid.Center(), 0.99, paper.PercTrials, rng.New(layerSeed)); err != nil {
			b.check(false, "percolation.CriticalBondRatio: %v", err)
		}
	})
	b.set("percolation.critical_ms", d/1e6, 3)

	field, err := topo.NewScratch().ConnectedRandomDisk(tableTwoField(paper.NetNodes), rng.New(layerSeed), 500)
	if err != nil {
		b.check(false, "Table 2 field: %v", err)
		return
	}
	runD, events := timeNetsim(b, field, paper.NetDuration, 25)
	b.set("netsim.run_ms.paper", runD/1e6, 25)
	if events > 0 {
		b.set("sim.ns_per_event", runD/float64(events), 25)
	}

	var q eventq.Queue
	r := rng.New(layerSeed)
	d = timePer(5, 500_000, func() {
		q.Push(time.Duration(r.Intn(1000))*time.Millisecond, nil)
		if q.Len() > 1024 {
			q.Pop()
		}
	})
	b.set("eventq.push_pop_ns", d, 5)

	b.set("phy.transmit_ns", timeTransmit(b), 5)

	var bank energy.Bank
	bank.Init(paper.NetNodes, energy.Config{Profile: energy.Mica2(), Initial: energy.Idle})
	states := []energy.State{energy.Sleep, energy.Idle, energy.Receive, energy.Transmit}
	i, now := 0, time.Duration(0)
	d = timePer(5, 1_000_000, func() {
		i++
		now += time.Millisecond
		bank.SetState(i%paper.NetNodes, states[i%len(states)], now)
	})
	b.set("energy.setstate_ns", d, 5)

	// The 10k-node field of the large scale.
	sc := topo.NewScratch()
	var lfield *topo.RandomDisk
	d = timePer(3, 1, func() {
		lfield, err = sc.ConnectedRandomDisk(tableTwoField(large.NetNodes), rng.New(layerSeed), 500)
	})
	if err != nil {
		b.check(false, "large field: %v", err)
		return
	}
	b.set("topo.build_ms.large", d/1e6, 3)

	hop := topo.NewScratch()
	d = timePer(5, 1, func() { hop.HopDistances(lfield, 0) })
	b.set("topo.hopdist_ms.large", d/1e6, 5)

	// One duplicate filter per node, each holding the packets of one
	// large-scale run, as a pooled fleet resets them between runs.
	filters := make([]*core.DuplicateFilter, large.NetNodes)
	for n := range filters {
		filters[n] = core.NewDuplicateFilter()
		for s := uint64(0); s < 2; s++ {
			filters[n].MarkSeen(core.PacketKey{Origin: 0, Seq: s})
		}
	}
	d = timePer(9, 1, func() {
		for _, f := range filters {
			f.Reset()
		}
	})
	b.set("core.dupfilter_reset_us.large", d/1e3, 9)

	runD, _ = timeNetsim(b, lfield, large.NetDuration, 3)
	b.set("netsim.run_ms.large", runD/1e6, 3)
}

// tableTwoField is the Section 5 deployment: n nodes of 30 m range placed
// uniformly at density Δ=10.
func tableTwoField(n int) topo.DiskConfig {
	return topo.DiskConfig{N: n, Range: 30, Area: topo.AreaForDensity(n, 30, 10)}
}

// timeNetsim runs one PBBF broadcast workload on the field reps times
// through one RunPool and returns the median run time and the simulated
// events of one run.
func timeNetsim(b *bench, field topo.Topology, dur time.Duration, reps int) (float64, uint64) {
	pool := netsim.NewRunPool()
	cfg := netsim.Config{
		Topo:      field,
		Source:    0,
		MAC:       mac.DefaultConfig(core.Params{P: 0.25, Q: 0.25}),
		Lambda:    0.01,
		Duration:  dur,
		K:         1,
		TrackHops: []int{2, 5},
		Seed:      layerSeed,
	}
	var (
		first  *netsim.Result
		events uint64
	)
	d := timePer(reps, 1, func() {
		fired := sim.TotalFired()
		res, err := pool.Run(cfg)
		if err != nil {
			b.check(false, "netsim RunPool.Run: %v", err)
			return
		}
		events = sim.TotalFired() - fired
		if first == nil {
			first = res
		}
		b.check(res.EnergyPerUpdateJ == first.EnergyPerUpdateJ && res.UpdatesReceivedFraction == first.UpdatesReceivedFraction,
			"netsim RunPool.Run is not repeatable on a frozen input")
	})
	return d, events
}

// nopReceiver accepts decoded frames and drops them.
type nopReceiver struct{}

func (nopReceiver) Deliver(phy.Frame) {}

// timeTransmit times one Channel.Transmit plus its end-of-airtime fan-out
// on a fixed 100-node field with every radio listening.
func timeTransmit(b *bench) float64 {
	field, err := topo.NewScratch().ConnectedRandomDisk(tableTwoField(100), rng.New(layerSeed), 500)
	if err != nil {
		b.check(false, "phy field: %v", err)
		return 0
	}
	kernel := sim.NewKernel()
	ch := phy.NewChannel(kernel, field)
	for id := 0; id < field.N(); id++ {
		ch.Register(topo.NodeID(id), nopReceiver{})
		ch.SetListening(topo.NodeID(id), true)
	}
	sender := 0
	return timePer(5, 20_000, func() {
		sender = (sender + 1) % field.N()
		if err := ch.Transmit(phy.Frame{Sender: topo.NodeID(sender), Airtime: 26 * time.Millisecond}, nil); err != nil {
			b.check(false, "phy Transmit: %v", err)
			return
		}
		if err := kernel.RunUntilIdle(); err != nil {
			b.check(false, "phy kernel: %v", err)
		}
	})
}
