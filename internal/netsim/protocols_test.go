package netsim

import (
	"testing"

	"pbbf/internal/core"
	"pbbf/internal/protocol"
)

// protoScenario is the shared arena: one seeded connected field, one
// source, one workload — only cfg.Protocol varies between the runs under
// comparison.
func protoScenario(t *testing.T, spec protocol.Spec, seed uint64) Config {
	t.Helper()
	cfg := scenario(t, core.Params{P: 0.25, Q: 0.25}, 30, 10, seed)
	cfg.Protocol = spec
	return cfg
}

// TestRivalProtocolsDeliver checks the floor every protocol must clear:
// each rival floods most of a connected 30-node field.
func TestRivalProtocolsDeliver(t *testing.T) {
	specs := []protocol.Spec{
		{Name: protocol.NameSleepSched},
		{Name: protocol.NameOLA, RelayThreshold: 10},
	}
	for _, spec := range specs {
		res, err := Run(protoScenario(t, spec, 11))
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if res.UpdatesReceivedFraction < 0.8 {
			t.Errorf("%s delivered only %v of updates", spec.Name, res.UpdatesReceivedFraction)
		}
	}
}

// TestProtocolEnergyLatencyOrdering pins each rival to its corner of the
// trade-off space: sleepsched (duty cycle 1/4) must spend less energy than
// always-awake OLA, and OLA — which relays within one CSMA backoff — must
// beat sleepsched's O(W)-intervals-per-hop latency by a wide margin.
func TestProtocolEnergyLatencyOrdering(t *testing.T) {
	run := func(spec protocol.Spec) *Result {
		t.Helper()
		res, err := Run(protoScenario(t, spec, 12))
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		return res
	}
	sleep := run(protocol.Spec{Name: protocol.NameSleepSched})
	ola := run(protocol.Spec{Name: protocol.NameOLA, RelayThreshold: 10})
	if sleep.EnergyPerUpdateJ >= ola.EnergyPerUpdateJ {
		t.Errorf("sleepsched (duty-cycled) should cost less than always-on OLA: %v vs %v J/update",
			sleep.EnergyPerUpdateJ, ola.EnergyPerUpdateJ)
	}
	if sleep.Latency.N() == 0 || ola.Latency.N() == 0 {
		t.Fatal("both protocols should record latencies")
	}
	if ola.Latency.Mean() >= sleep.Latency.Mean()/2 {
		t.Errorf("OLA should be far faster than sleepsched: %v vs %v s",
			ola.Latency.Mean(), sleep.Latency.Mean())
	}
}

// TestRivalProtocolsDeterministic replays each rival and requires bitwise
// identical results — the same determinism contract PBBF runs satisfy.
func TestRivalProtocolsDeterministic(t *testing.T) {
	for _, spec := range []protocol.Spec{
		{Name: protocol.NameSleepSched, WakePeriod: 2},
		{Name: protocol.NameOLA},
	} {
		a, err := Run(protoScenario(t, spec, 13))
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		b, err := Run(protoScenario(t, spec, 13))
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if a.EnergyPerUpdateJ != b.EnergyPerUpdateJ ||
			a.UpdatesReceivedFraction != b.UpdatesReceivedFraction ||
			a.Latency.Mean() != b.Latency.Mean() {
			t.Errorf("%s not deterministic: %+v vs %+v", spec.Name, a, b)
		}
	}
}

// TestRivalProtocolsPooledMatchesUnpooled extends the pooled-equals-unpooled
// determinism guarantee to protocol dispatch: RunPool must produce the exact
// results of Run for every rival, not only for PBBF.
func TestRivalProtocolsPooledMatchesUnpooled(t *testing.T) {
	pool := NewRunPool()
	for _, spec := range []protocol.Spec{
		{Name: protocol.NameSleepSched},
		{Name: protocol.NameOLA, RelayThreshold: 2},
	} {
		cfg := protoScenario(t, spec, 14)
		plain, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		pooled, err := pool.Run(cfg)
		if err != nil {
			t.Fatalf("%s pooled: %v", spec.Name, err)
		}
		if plain.EnergyPerUpdateJ != pooled.EnergyPerUpdateJ ||
			plain.UpdatesReceivedFraction != pooled.UpdatesReceivedFraction ||
			plain.Latency.Mean() != pooled.Latency.Mean() {
			t.Errorf("%s: pooled diverged from unpooled: %+v vs %+v", spec.Name, plain, pooled)
		}
	}
}
