package netsim

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"pbbf/internal/core"
	"pbbf/internal/mac"
	"pbbf/internal/raceflag"
	"pbbf/internal/rng"
	"pbbf/internal/topo"
)

// poolTestConfigs returns a config matrix exercising every conditional
// feature path (loss, link loss, churn, hetero, adaptive) over small
// fields, so pool-vs-fresh equivalence covers each RNG-split branch.
func poolTestConfigs(t *testing.T) []Config {
	t.Helper()
	mk := func(n int, seed uint64, mutate func(*Config)) Config {
		d, err := topo.NewConnectedRandomDisk(topo.DiskConfig{
			N: n, Range: 30, Area: topo.AreaForDensity(n, 30, 10),
		}, rng.New(seed), 500)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Topo:      d,
			Source:    topo.NodeID(n / 2),
			MAC:       mac.DefaultConfig(core.Params{P: 0.5, Q: 0.25}),
			Lambda:    0.01,
			Duration:  300 * time.Second,
			K:         1,
			TrackHops: []int{1, 2},
			Seed:      seed * 7,
		}
		if mutate != nil {
			mutate(&cfg)
		}
		return cfg
	}
	adaptive := core.DefaultAdaptiveConfig()
	return []Config{
		mk(30, 1, nil),
		mk(24, 2, func(c *Config) { c.Loss.Rate = 0.2 }),
		mk(24, 3, func(c *Config) { c.Loss.LinkMean = 0.2 }),
		mk(24, 4, func(c *Config) { c.Churn.FailFraction = 0.25 }),
		mk(24, 5, func(c *Config) { c.Hetero = mac.HeteroConfig{QSpread: 0.2} }),
		mk(20, 6, func(c *Config) { c.MAC.Adaptive = &adaptive }),
		mk(24, 7, func(c *Config) {
			// Batteries sized to deplete part of the fleet mid-run, so the
			// equivalence matrix covers the energy RNG split, depletion
			// deaths, and the lifetime metrics.
			c.Energy = EnergyOptions{InitialJ: 0.4, JitterFrac: 0.2, HarvestW: 0.002}
		}),
	}
}

// TestRunPoolMatchesRun: a pooled run must be observably identical to the
// unpooled Run for the same Config — same draws, same metrics — and stay
// identical when the pool is dirty from runs of other shapes and features.
func TestRunPoolMatchesRun(t *testing.T) {
	pool := NewRunPool()
	for i, cfg := range poolTestConfigs(t) {
		want, err := Run(cfg)
		if err != nil {
			t.Fatalf("config %d: fresh run: %v", i, err)
		}
		got, err := pool.Run(cfg)
		if err != nil {
			t.Fatalf("config %d: pooled run: %v", i, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("config %d: pooled result diverges\nfresh:  %+v\npooled: %+v", i, want, got)
		}
	}
}

// TestRunPoolRepeatIdentical: the same scenario twice through one pool must
// return equal results — reused state cannot leak between runs.
func TestRunPoolRepeatIdentical(t *testing.T) {
	pool := NewRunPool()
	for i, cfg := range poolTestConfigs(t) {
		first, err := pool.Run(cfg)
		if err != nil {
			t.Fatalf("config %d: first run: %v", i, err)
		}
		second, err := pool.Run(cfg)
		if err != nil {
			t.Fatalf("config %d: second run: %v", i, err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("config %d: rerun diverges\nfirst:  %+v\nsecond: %+v", i, first, second)
		}
	}
}

// TestRunPoolConcurrentWorkers: one pool per goroutine is the sweep
// deployment model; every worker must reproduce the single-threaded result.
// Run with -race in CI.
func TestRunPoolConcurrentWorkers(t *testing.T) {
	cfgs := poolTestConfigs(t)
	want := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pool := NewRunPool()
			for i, cfg := range cfgs {
				got, err := pool.Run(cfg)
				if err != nil {
					errs[w] = err
					return
				}
				if !reflect.DeepEqual(want[i], got) {
					t.Errorf("worker %d config %d: result diverges", w, i)
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
}

// TestRunPoolSteadyStateAllocs: after warm-up, a pooled run's allocations
// must stay within a small constant budget — the per-run leftovers (result
// maps, payload copies, records dropped by the kernel reset) — independent
// of event count.
func TestRunPoolSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc counts are meaningless under -race")
	}
	cfg := poolTestConfigs(t)[0]
	pool := NewRunPool()
	if _, err := pool.Run(cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := pool.Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	// The budget covers the freshly-built Result (its maps and accumulator
	// pointers), one payload copy + interface box per generated update, and
	// the handful of pooled records the end-of-run kernel reset drops.
	const budget = 60
	if allocs > budget {
		t.Fatalf("steady-state pooled run allocates %.0f times, budget %d", allocs, budget)
	}
}
