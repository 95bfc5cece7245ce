// Adaptive PBBF: the paper's future-work extension (Section 6). Nodes
// start at a conservative operating point and adjust their own p and q —
// p rises when they overhear lots of traffic (neighbors are awake, so
// immediate broadcasts will land), q rises when sequence-number gaps show
// broadcasts are being missed. This example degrades the channel and
// compares a static setting against the adaptive controller.
package main

import (
	"fmt"
	"os"
	"time"

	"pbbf/internal/core"
	"pbbf/internal/mac"
	"pbbf/internal/netsim"
	"pbbf/internal/rng"
	"pbbf/internal/topo"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "adaptive:", err)
		os.Exit(1)
	}
}

func run() error {
	r := rng.New(21)
	diskCfg := topo.DiskConfig{N: 40, Range: 30, Area: topo.AreaForDensity(40, 30, 10)}
	field, err := topo.NewConnectedRandomDisk(diskCfg, r, 500)
	if err != nil {
		return err
	}

	start := core.Params{P: 0.25, Q: 0.25}
	adaptiveCfg := core.DefaultAdaptiveConfig()
	adaptiveCfg.Initial = start

	fmt.Println("channel loss   static received   adaptive received")
	for _, loss := range []float64{0, 0.1, 0.2, 0.3} {
		static, err := runOnce(field, start, nil, loss)
		if err != nil {
			return err
		}
		adaptive, err := runOnce(field, start, &adaptiveCfg, loss)
		if err != nil {
			return err
		}
		fmt.Printf("%11.0f%%   %14.1f%%   %16.1f%%\n",
			loss*100, static*100, adaptive*100)
	}
	fmt.Println()
	fmt.Println("As loss grows, adaptive nodes detect sequence gaps and raise q,")
	fmt.Println("buying back reliability that the static setting loses.")
	return nil
}

func runOnce(field topo.Topology, params core.Params, adaptive *core.AdaptiveConfig, loss float64) (float64, error) {
	macCfg := mac.DefaultConfig(params)
	macCfg.Adaptive = adaptive
	res, err := netsim.Run(netsim.Config{
		Topo:     field,
		Source:   0,
		MAC:      macCfg,
		Lambda:   0.01,
		Duration: 600 * time.Second,
		K:        1,
		Loss:     netsim.LossOptions{Rate: loss},
		Seed:     21,
	})
	if err != nil {
		return 0, err
	}
	return res.UpdatesReceivedFraction, nil
}
