package netsim

import (
	"testing"

	"pbbf/internal/core"
)

func TestLossRateValidation(t *testing.T) {
	cfg := scenario(t, core.PSM(), 20, 10, 1)
	cfg.Loss.Rate = -0.1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative loss accepted")
	}
	cfg.Loss.Rate = 1
	if err := cfg.Validate(); err == nil {
		t.Fatal("loss rate 1 accepted")
	}
	cfg.Loss.Rate = 0.5
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLossReducesReliability(t *testing.T) {
	clean := scenario(t, core.Params{P: 0.5, Q: 0.25}, 30, 10, 11)
	resClean, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	lossy := scenario(t, core.Params{P: 0.5, Q: 0.25}, 30, 10, 11)
	lossy.Loss.Rate = 0.4
	resLossy, err := Run(lossy)
	if err != nil {
		t.Fatal(err)
	}
	if resLossy.UpdatesReceivedFraction > resClean.UpdatesReceivedFraction+0.01 {
		t.Fatalf("40%% loss improved reliability: %v -> %v",
			resClean.UpdatesReceivedFraction, resLossy.UpdatesReceivedFraction)
	}
}

func TestKBatchingImprovesLossyReliability(t *testing.T) {
	k1 := scenario(t, core.Params{P: 0.5, Q: 0.1}, 30, 10, 12)
	k1.Loss.Rate = 0.2
	res1, err := Run(k1)
	if err != nil {
		t.Fatal(err)
	}
	k4 := scenario(t, core.Params{P: 0.5, Q: 0.1}, 30, 10, 12)
	k4.Loss.Rate = 0.2
	k4.K = 4
	res4, err := Run(k4)
	if err != nil {
		t.Fatal(err)
	}
	if res4.UpdatesReceivedFraction < res1.UpdatesReceivedFraction-0.02 {
		t.Fatalf("k=4 fraction %v below k=1 fraction %v under loss",
			res4.UpdatesReceivedFraction, res1.UpdatesReceivedFraction)
	}
}

func TestAdaptiveMACIntegration(t *testing.T) {
	cfg := scenario(t, core.Params{P: 0.25, Q: 0.25}, 25, 10, 13)
	ac := core.DefaultAdaptiveConfig()
	ac.Initial = cfg.MAC.Params
	cfg.MAC.Adaptive = &ac
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.UpdatesGenerated == 0 {
		t.Fatal("no updates generated")
	}
	if res.UpdatesReceivedFraction <= 0 || res.UpdatesReceivedFraction > 1 {
		t.Fatalf("received fraction %v out of range", res.UpdatesReceivedFraction)
	}
}

func TestAdaptiveMACDeterministic(t *testing.T) {
	run := func() float64 {
		cfg := scenario(t, core.Params{P: 0.25, Q: 0.25}, 25, 10, 14)
		ac := core.DefaultAdaptiveConfig()
		ac.Initial = cfg.MAC.Params
		cfg.MAC.Adaptive = &ac
		cfg.Loss.Rate = 0.2
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.UpdatesReceivedFraction
	}
	if run() != run() {
		t.Fatal("adaptive lossy runs with identical seeds diverged")
	}
}
