// Package netsim runs the fine-grained Section 5 simulations: a random
// sensor field, the full PSM+PBBF MAC over a collision-prone channel, and
// the code distribution application on top. It produces the metrics behind
// Figures 13–18: per-update energy, per-hop-distance update latency, and
// the fraction of updates received.
//
// The paper used ns-2 with a modified 802.11 PSM MAC; this package is the
// equivalent substrate built on internal/sim + internal/phy + internal/mac
// (see README.md for the architecture and docs/EXPERIMENTS.md for the
// figures it backs).
package netsim

import (
	"fmt"
	"slices"
	"time"

	"pbbf/internal/codedist"
	"pbbf/internal/mac"
	"pbbf/internal/phy"
	"pbbf/internal/protocol"
	"pbbf/internal/rng"
	"pbbf/internal/sim"
	"pbbf/internal/stats"
	"pbbf/internal/topo"
	"pbbf/internal/trace"
)

// LossOptions groups the channel-loss knobs — one option struct per fault/
// diversity family is the Config idiom.
type LossOptions struct {
	// Rate injects independent per-reception frame loss at the PHY
	// (0 = the paper's collision-only channel).
	Rate float64
	// LinkMean, when positive, draws a persistent loss rate for every
	// link uniformly in [0, 2·LinkMean) — link quality diversity on
	// top of (or instead of) the iid Rate. Must stay below 0.5.
	LinkMean float64
}

// ChurnOptions groups the fail-stop churn knobs.
type ChurnOptions struct {
	// FailFraction, when positive, kills this fraction of non-source
	// nodes (fail-stop, permanent) at seeded uniform times during the run.
	FailFraction float64
}

// EnergyOptions groups the finite-battery knobs. The zero value is the
// paper's infinite battery: no extra random draws, byte-identical runs.
type EnergyOptions struct {
	// InitialJ is the mean per-node initial battery capacity in joules;
	// 0 keeps every battery infinite.
	InitialJ float64
	// JitterFrac, when positive, spreads per-node capacities uniformly in
	// [InitialJ·(1−JitterFrac), InitialJ·(1+JitterFrac)) from a dedicated
	// seeded split — a field of mixed battery ages instead of one
	// factory-fresh fleet. Must stay below 1 so every node keeps a
	// positive (finite) budget.
	JitterFrac float64
	// HarvestW recharges every battery at a constant rate, clamped at its
	// capacity.
	HarvestW float64
}

// Enabled reports whether batteries are finite.
func (e EnergyOptions) Enabled() bool { return e.InitialJ > 0 }

// Validate checks the options.
func (e EnergyOptions) Validate() error {
	if e.InitialJ < 0 {
		return fmt.Errorf("netsim: initial energy %v must be non-negative", e.InitialJ)
	}
	if e.JitterFrac < 0 || e.JitterFrac >= 1 {
		return fmt.Errorf("netsim: energy jitter %v outside [0,1)", e.JitterFrac)
	}
	if e.JitterFrac > 0 && e.InitialJ == 0 {
		return fmt.Errorf("netsim: energy jitter %v requires a positive initial energy", e.JitterFrac)
	}
	if e.HarvestW < 0 {
		return fmt.Errorf("netsim: harvest rate %v must be non-negative", e.HarvestW)
	}
	if e.HarvestW > 0 && e.InitialJ == 0 {
		return fmt.Errorf("netsim: harvest rate %v requires a positive initial energy", e.HarvestW)
	}
	return nil
}

// Sample draws one node's battery options, consuming one draw from r only
// when jitter is configured (the hetero sampler pattern), so homogeneous
// fleets keep deterministic per-node streams.
func (e EnergyOptions) Sample(r *rng.Source) mac.EnergyOptions {
	out := mac.EnergyOptions{InitialJ: e.InitialJ, HarvestW: e.HarvestW}
	if e.JitterFrac > 0 {
		out.InitialJ = e.InitialJ * (1 + (2*r.Float64()-1)*e.JitterFrac)
	}
	return out
}

// Config parameterizes one scenario run (one topology, one seed).
type Config struct {
	// Topo is the deployment; Section 5 uses 50 nodes placed uniformly at
	// random with density Δ (Table 2).
	Topo topo.Topology
	// Source is the broadcast/code-distribution origin.
	Source topo.NodeID
	// MAC holds the PSM timing, PBBF knobs, bit rate, and frame sizes.
	MAC mac.Config
	// Protocol selects the broadcast protocol every node runs
	// (internal/protocol); the zero value is PBBF. It is threaded into
	// MAC.Protocol, and setting both to different protocols is an error.
	Protocol protocol.Spec
	// Lambda is the update generation rate (Table 1: 0.01 updates/s).
	Lambda float64
	// Duration is the simulated time (Section 5: 500 s).
	Duration time.Duration
	// K is the number of recent updates batched per packet (Table 2: 1).
	K int
	// TrackHops lists BFS distances from the source at which latency is
	// reported separately (Figures 14/15 use 2 and 5).
	TrackHops []int
	// Loss groups the channel-loss knobs.
	Loss LossOptions
	// Churn groups the fail-stop churn knobs.
	Churn ChurnOptions
	// Hetero, when enabled, jitters each node's PBBF operating point
	// around MAC.Params from a seeded per-node distribution —
	// heterogeneous duty cycles instead of one global wake probability.
	Hetero mac.HeteroConfig
	// Energy, when enabled, gives every node a finite battery (mean
	// initial capacity, optional per-node jitter, optional harvesting)
	// with fail-stop death on depletion; Result then reports the
	// network-lifetime metrics. The per-node budgets are threaded into
	// each node's MAC config, so setting this alongside a non-zero
	// MAC.Energy is a conflict.
	Energy EnergyOptions
	// Trace, when non-nil, receives the run's event stream (every node's
	// tx/rx/sleep/wake/energy events plus channel drops). Tracing is pure
	// observation: traced and untraced runs produce identical Results,
	// and a nil sink adds no allocations to the hot path.
	Trace trace.Sink
	// Seed drives every coin in the run.
	Seed uint64
}

// normalized threads Protocol and Trace into the MAC config, rejecting
// conflicting assignments. Every entry point (Run, RunPool.Run, Validate)
// operates on the normalized form.
func (c Config) normalized() (Config, error) {
	if c.Protocol != (protocol.Spec{}) {
		if c.MAC.Protocol != (protocol.Spec{}) && c.MAC.Protocol != c.Protocol {
			return c, fmt.Errorf("netsim: Protocol %q conflicts with MAC.Protocol %q",
				c.Protocol.Name, c.MAC.Protocol.Name)
		}
		c.MAC.Protocol = c.Protocol
	}
	if c.Trace != nil {
		if c.MAC.Trace != nil && c.MAC.Trace != c.Trace {
			return c, fmt.Errorf("netsim: Trace conflicts with MAC.Trace")
		}
		c.MAC.Trace = c.Trace
	}
	if c.Energy != (EnergyOptions{}) && c.MAC.Energy != (mac.EnergyOptions{}) {
		// Energy folds per node (jitter draws a budget for each), not
		// here; a hand-set MAC budget would be silently overwritten.
		return c, fmt.Errorf("netsim: Energy conflicts with MAC.Energy; set one")
	}
	return c, nil
}

// Validate checks the normalized configuration.
func (c Config) Validate() error {
	c, err := c.normalized()
	if err != nil {
		return err
	}
	return c.validateNormalized()
}

// validateNormalized checks a configuration normalized has already folded.
func (c Config) validateNormalized() error {
	if c.Topo == nil || c.Topo.N() == 0 {
		return fmt.Errorf("netsim: empty topology")
	}
	if int(c.Source) < 0 || int(c.Source) >= c.Topo.N() {
		return fmt.Errorf("netsim: source %d outside [0,%d)", c.Source, c.Topo.N())
	}
	if err := c.MAC.Validate(); err != nil {
		return err
	}
	if c.Lambda <= 0 {
		return fmt.Errorf("netsim: lambda %v must be positive", c.Lambda)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("netsim: duration %v must be positive", c.Duration)
	}
	if c.K <= 0 {
		return fmt.Errorf("netsim: k %d must be positive", c.K)
	}
	if c.Loss.Rate < 0 || c.Loss.Rate >= 1 {
		return fmt.Errorf("netsim: loss rate %v outside [0,1)", c.Loss.Rate)
	}
	if c.Loss.LinkMean < 0 || c.Loss.LinkMean >= 0.5 {
		return fmt.Errorf("netsim: mean link loss %v outside [0,0.5)", c.Loss.LinkMean)
	}
	if c.Churn.FailFraction < 0 || c.Churn.FailFraction >= 1 {
		return fmt.Errorf("netsim: churn fraction %v outside [0,1)", c.Churn.FailFraction)
	}
	if err := c.Hetero.Validate(); err != nil {
		return err
	}
	if err := c.Energy.Validate(); err != nil {
		return err
	}
	return nil
}

// Result aggregates one run's metrics.
type Result struct {
	// UpdatesGenerated is the number of updates the source created.
	UpdatesGenerated int
	// EnergyPerUpdateJ is mean per-node energy divided by updates.
	EnergyPerUpdateJ float64
	// UpdatesReceivedFraction is the mean over non-source nodes of
	// (updates received / updates generated) — Figures 16/18.
	UpdatesReceivedFraction float64
	// Latency accumulates first-sight update latency (seconds) over all
	// non-source nodes — Figure 17.
	Latency stats.Accumulator
	// LatencyAtHop holds the same metric restricted to nodes at each
	// tracked BFS distance — Figures 14/15.
	LatencyAtHop map[int]*stats.Accumulator
	// NodesAtHop counts nodes at each tracked distance in this scenario.
	NodesAtHop map[int]int
	// NodesDied counts externally injected (churn) fail-stop deaths
	// during the run; depletion deaths are counted separately so churn
	// scenarios report unchanged numbers under the finite-energy API.
	NodesDied int
	// NodesDepleted counts battery-depletion deaths (finite-energy runs).
	NodesDepleted int
	// Network-lifetime metrics, populated only for finite-energy runs
	// (Config.Energy enabled); the times cover deaths of either cause and
	// are censored at the horizon — a network that never reached the
	// event reports Duration.
	//
	// TimeToFirstDeathS is when the first node died.
	TimeToFirstDeathS float64
	// TimeToHalfDeadS is when half the nodes (rounded up) were dead.
	TimeToHalfDeadS float64
	// CoverageOverTime samples the alive-node fraction at 11 evenly
	// spaced instants from t=0 through the horizon.
	CoverageOverTime []float64
	// EnergyVarianceJ2 is the population variance of per-node consumed
	// joules — the load-balance axis of the max-lifetime literature.
	EnergyVarianceJ2 float64
	// Channel-level counters (diagnostics).
	FramesStarted, FramesDelivered, FramesCollided int
}

// lifetimeMetrics fills the network-lifetime fields of res from the
// fleet's death times. buf is scratch for the sorted times; the
// possibly-grown buffer is returned so a pooled caller can reuse it.
func lifetimeMetrics(res *Result, cfg *Config, nodes []*mac.Node, buf []time.Duration) []time.Duration {
	buf = buf[:0]
	for _, node := range nodes {
		if node.Dead() {
			buf = append(buf, node.DiedAt())
		}
	}
	slices.Sort(buf)
	horizon := cfg.Duration.Seconds()
	res.TimeToFirstDeathS = horizon
	res.TimeToHalfDeadS = horizon
	if len(buf) > 0 {
		res.TimeToFirstDeathS = buf[0].Seconds()
	}
	n := len(nodes)
	if half := (n + 1) / 2; len(buf) >= half {
		res.TimeToHalfDeadS = buf[half-1].Seconds()
	}
	const coverageSamples = 11
	res.CoverageOverTime = make([]float64, coverageSamples)
	k := 0
	for s := 0; s < coverageSamples; s++ {
		t := time.Duration(float64(cfg.Duration) * float64(s) / float64(coverageSamples-1))
		for k < len(buf) && buf[k] <= t {
			k++
		}
		res.CoverageOverTime[s] = float64(n-k) / float64(n)
	}
	return buf
}

// Run executes one scenario.
func Run(cfg Config) (*Result, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	if err := cfg.validateNormalized(); err != nil {
		return nil, err
	}
	kernel := sim.NewKernel()
	channel := phy.NewChannel(kernel, cfg.Topo)
	channel.SetTrace(cfg.MAC.Trace)
	base := rng.New(cfg.Seed)
	if cfg.Loss.Rate > 0 {
		if err := channel.SetLoss(cfg.Loss.Rate, base.Split()); err != nil {
			return nil, err
		}
	}
	// Every diversity feature draws its splits conditionally, so runs with
	// the feature off consume the exact random stream they always did —
	// existing scenarios stay byte-identical.
	if cfg.Loss.LinkMean > 0 {
		table, err := phy.NewUniformLinkLoss(cfg.Topo, cfg.Loss.LinkMean, base.Split())
		if err != nil {
			return nil, err
		}
		if err := channel.SetLinkLoss(table, base.Split()); err != nil {
			return nil, err
		}
	}
	var heteroRNG *rng.Source
	if cfg.Hetero.Enabled() {
		heteroRNG = base.Split()
	}
	var energyRNG *rng.Source
	if cfg.Energy.Enabled() {
		energyRNG = base.Split()
	}

	n := cfg.Topo.N()
	trackers := make([]*codedist.Tracker, n)
	nodes := make([]*mac.Node, n)
	for i := 0; i < n; i++ {
		trackers[i] = codedist.NewTracker()
		tracker := trackers[i]
		nodeCfg := cfg.MAC
		if heteroRNG != nil {
			nodeCfg.Params = cfg.Hetero.Sample(cfg.MAC.Params, heteroRNG)
		}
		if energyRNG != nil {
			nodeCfg.Energy = cfg.Energy.Sample(energyRNG)
		}
		node, err := mac.NewNode(topo.NodeID(i), nodeCfg, kernel, channel, base.Split(),
			func(pkt mac.Packet, _ topo.NodeID, now time.Duration) {
				if payload, ok := pkt.Payload.(codedist.Payload); ok {
					tracker.Observe(payload, now)
				}
			})
		if err != nil {
			return nil, err
		}
		nodes[i] = node
	}

	// Churn: pick the victims and their death times from one dedicated
	// split, then schedule the fail-stop kills. The source is never killed
	// (a dead source makes the delivery metric meaningless).
	if cfg.Churn.FailFraction > 0 {
		churnRNG := base.Split()
		deaths := int(cfg.Churn.FailFraction*float64(n-1) + 0.5)
		victims := make([]topo.NodeID, 0, deaths)
		for _, id := range churnRNG.Perm(n) {
			if len(victims) == deaths {
				break
			}
			if topo.NodeID(id) != cfg.Source {
				victims = append(victims, topo.NodeID(id))
			}
		}
		for _, id := range victims {
			at := time.Duration(churnRNG.Float64() * float64(cfg.Duration))
			kernel.ScheduleAt(at, nodes[id].Kill)
		}
	}

	// Update generation: deterministic at rate λ, starting at t=0 (frame
	// boundaries, so updates arrive during the ATIM window). These events
	// are scheduled before the frame ticks and therefore fire first at
	// equal timestamps, letting the source announce in the same window.
	source, err := codedist.NewSource(cfg.K)
	if err != nil {
		return nil, err
	}
	// The generate/tick/window callbacks are created once and rescheduled
	// into pooled event slots, so the whole beacon machinery runs
	// allocation-free regardless of horizon length.
	generate := func() {
		payload := source.Generate(kernel.Now())
		trackers[cfg.Source].Observe(payload, kernel.Now())
		nodes[cfg.Source].Broadcast(mac.Packet{
			Key:     mac.PacketKeyFor(cfg.Source, uint64(source.Generated()-1)),
			Payload: payload,
		})
	}
	interval := time.Duration(float64(time.Second) / cfg.Lambda)
	for at := time.Duration(0); at < cfg.Duration; at += interval {
		kernel.ScheduleAt(at, generate)
	}

	// Beacon schedule: one recurring frame tick fans StartFrame out over
	// the reusable node slice at each beacon, then EndATIMWindow when the
	// window closes. Nodes are visited in ID order, keeping runs
	// deterministic.
	endWindow := func() {
		for _, node := range nodes {
			node.EndATIMWindow()
		}
	}
	var tick func()
	tick = func() {
		for _, node := range nodes {
			node.StartFrame()
		}
		kernel.Schedule(cfg.MAC.Timing.Active, endWindow)
		kernel.Schedule(cfg.MAC.Timing.Frame, tick)
	}
	kernel.ScheduleAt(0, tick)

	if err := kernel.Run(cfg.Duration); err != nil {
		return nil, err
	}

	return harvest(cfg, nodes, trackers, channel, source.Generated()), nil
}

// harvest computes the Result from final simulation state.
func harvest(cfg Config, nodes []*mac.Node, trackers []*codedist.Tracker,
	channel *phy.Channel, generated int) *Result {
	res := &Result{
		UpdatesGenerated: generated,
		LatencyAtHop:     make(map[int]*stats.Accumulator, len(cfg.TrackHops)),
		NodesAtHop:       make(map[int]int, len(cfg.TrackHops)),
	}
	dist := topo.HopDistances(cfg.Topo, cfg.Source)
	for _, h := range cfg.TrackHops {
		res.LatencyAtHop[h] = &stats.Accumulator{}
		for _, d := range dist {
			if d == h {
				res.NodesAtHop[h]++
			}
		}
	}

	var energyTotal, energySq float64
	var fraction stats.Accumulator
	for i, node := range nodes {
		node.FinishMetering(cfg.Duration)
		e := node.EnergyAt(cfg.Duration)
		energyTotal += e
		energySq += e * e
		if node.Dead() {
			if node.Depleted() {
				res.NodesDepleted++
			} else {
				res.NodesDied++
			}
		}
		if topo.NodeID(i) == cfg.Source {
			continue
		}
		tr := trackers[i]
		if generated > 0 {
			fraction.Add(float64(tr.Received()) / float64(generated))
		}
		// Iterate by sequence number: map order would make the floating-
		// point accumulation (and hence the run) nondeterministic.
		for seq := 0; seq < generated; seq++ {
			lat, ok := tr.Latency(seq)
			if !ok {
				continue
			}
			res.Latency.Add(lat.Seconds())
			if acc, ok := res.LatencyAtHop[dist[i]]; ok {
				acc.Add(lat.Seconds())
			}
		}
	}
	if generated > 0 {
		res.EnergyPerUpdateJ = energyTotal / float64(len(nodes)) / float64(generated)
	}
	mean := energyTotal / float64(len(nodes))
	res.EnergyVarianceJ2 = energySq/float64(len(nodes)) - mean*mean
	if cfg.Energy.Enabled() {
		lifetimeMetrics(res, &cfg, nodes, nil)
	}
	res.UpdatesReceivedFraction = fraction.Mean()
	res.FramesStarted, res.FramesDelivered, res.FramesCollided = channel.Stats()
	return res
}
