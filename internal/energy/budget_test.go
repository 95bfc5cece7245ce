package energy

import (
	"math"
	"testing"
	"time"
)

func TestBudgetValidate(t *testing.T) {
	cases := []struct {
		name string
		b    Budget
		ok   bool
	}{
		{"zero (infinite)", Budget{}, true},
		{"finite", Budget{CapacityJ: 2}, true},
		{"finite with harvest", Budget{CapacityJ: 2, HarvestW: 0.01}, true},
		{"negative capacity", Budget{CapacityJ: -1}, false},
		{"NaN capacity", Budget{CapacityJ: math.NaN()}, false},
		{"inf capacity", Budget{CapacityJ: math.Inf(1)}, false},
		{"negative harvest", Budget{CapacityJ: 1, HarvestW: -0.1}, false},
		{"NaN harvest", Budget{CapacityJ: 1, HarvestW: math.NaN()}, false},
		{"harvest without battery", Budget{HarvestW: 0.01}, false},
	}
	for _, tc := range cases {
		if err := tc.b.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestMeterInfiniteNeverDepletes(t *testing.T) {
	m := New(Config{Profile: Mica2(), Initial: Transmit})
	if m.Finite() {
		t.Fatal("zero budget produced a finite battery")
	}
	if !math.IsInf(m.RemainingAt(1e6*time.Second), 1) {
		t.Fatalf("remaining = %v, want +Inf", m.RemainingAt(1e6*time.Second))
	}
	if m.Depleted(1e6 * time.Second) {
		t.Fatal("infinite battery depleted")
	}
}

func TestMeterDepletion(t *testing.T) {
	// 0.3 J at idle (0.030 W) runs dry at exactly t=10s.
	m := New(Config{Profile: Mica2(), Initial: Idle, Budget: Budget{CapacityJ: 0.3}})
	if !m.Finite() {
		t.Fatal("finite battery reported infinite")
	}
	if got := m.RemainingAt(5 * time.Second); !almostEqual(got, 0.15, 1e-12) {
		t.Fatalf("remaining at 5s = %v, want 0.15", got)
	}
	if m.Depleted(9 * time.Second) {
		t.Fatal("depleted before the budget ran out")
	}
	if !m.Depleted(10 * time.Second) {
		t.Fatal("not depleted at exhaustion")
	}
	// Consumption accounting is independent of the battery: it keeps
	// integrating past depletion (the MAC kills the node; the meter only
	// answers questions).
	if got := m.EnergyAt(20 * time.Second); !almostEqual(got, 0.6, 1e-9) {
		t.Fatalf("energy at 20s = %v, want 0.6", got)
	}
}

// The open interval must count against the battery even before any SetState
// closes it, so a depletion poll between state changes sees the drain.
func TestMeterRemainingOpenInterval(t *testing.T) {
	m := New(Config{Profile: Mica2(), Initial: Transmit, Budget: Budget{CapacityJ: 0.081}})
	if m.Depleted(500 * time.Millisecond) {
		t.Fatal("depleted at half the transmit budget")
	}
	if !m.Depleted(time.Second) {
		t.Fatal("open transmit interval not drained")
	}
}

func TestMeterHarvestClampAtCapacity(t *testing.T) {
	// Sleeping (3 µW) under a 1 mW harvest: the battery charges, hits the
	// 0.01 J ceiling within ~10 s, and must clamp there — not bank surplus.
	cfg := Config{Profile: Mica2(), Initial: Sleep, Budget: Budget{CapacityJ: 0.01, HarvestW: 1e-3}}
	m := New(cfg)
	m.SetState(Sleep, 1000*time.Second) // long clamped interval, closed
	if got := m.RemainingAt(1000 * time.Second); !almostEqual(got, 0.01, 1e-12) {
		t.Fatalf("remaining after clamped harvest = %v, want capacity 0.01", got)
	}
	// Now burn at transmit: depletion must start from capacity, not from
	// capacity plus the surplus harvested above the ceiling.
	m.SetState(Transmit, 1000*time.Second)
	dieAt := 1000*time.Second + time.Duration(0.01/(0.081-1e-3)*float64(time.Second))
	if m.Depleted(dieAt - time.Millisecond) {
		t.Fatal("depleted before the capacity-bounded budget ran out")
	}
	if !m.Depleted(dieAt + time.Millisecond) {
		t.Fatal("clamped battery lasted longer than its capacity allows")
	}
}

func TestMeterHarvestAboveDrawIsImmortal(t *testing.T) {
	// Harvest above the idle draw: the node is energy-neutral and never
	// depletes no matter the horizon.
	m := New(Config{Profile: Mica2(), Initial: Idle, Budget: Budget{CapacityJ: 0.1, HarvestW: 0.031}})
	if m.Depleted(1e6 * time.Second) {
		t.Fatal("energy-neutral node depleted")
	}
}

// A Bank slot and a Meter fed the same state changes must agree on every
// battery question, budget included.
func TestBankMatchesMeterFinite(t *testing.T) {
	cfg := Config{
		Profile: Mica2(),
		Initial: Idle,
		Budget:  Budget{CapacityJ: 0.5, HarvestW: 2e-3},
	}
	m := New(cfg)
	b := NewBank()
	b.Init(1, cfg)
	steps := []struct {
		s  State
		at time.Duration
	}{
		{Transmit, 1 * time.Second},
		{Sleep, 3 * time.Second},
		{Idle, 9 * time.Second},
		{Receive, 12 * time.Second},
		{Sleep, 14 * time.Second},
	}
	for _, st := range steps {
		m.SetState(st.s, st.at)
		b.SetState(0, st.s, st.at)
		if mr, br := m.RemainingAt(st.at), b.RemainingAt(0, st.at); mr != br {
			t.Fatalf("at %v: meter remaining %v != bank remaining %v", st.at, mr, br)
		}
	}
	for _, at := range []time.Duration{15 * time.Second, 30 * time.Second, 300 * time.Second} {
		if mr, br := m.Depleted(at), b.Depleted(0, at); mr != br {
			t.Fatalf("at %v: meter depleted %v != bank depleted %v", at, mr, br)
		}
		if me, be := m.EnergyAt(at), b.EnergyAt(0, at); me != be {
			t.Fatalf("at %v: meter energy %v != bank energy %v", at, me, be)
		}
	}
}

func TestBankSetBudgetPerNode(t *testing.T) {
	b := NewBank()
	b.Init(2, Config{Profile: Mica2(), Initial: Idle})
	if b.Finite(0) || b.Finite(1) {
		t.Fatal("infinite Init produced finite slots")
	}
	b.SetBudget(1, Budget{CapacityJ: 0.03})
	if b.Finite(0) {
		t.Fatal("SetBudget leaked onto another slot")
	}
	if !b.Depleted(1, 2*time.Second) {
		t.Fatal("per-node budget not applied")
	}
	if b.Depleted(0, 1e6*time.Second) {
		t.Fatal("infinite slot depleted")
	}
}

// Re-initialising a warm bank with the default (infinite) budget must drop
// the earlier finite one, and a steady-state Init must not allocate:
// pooled runs call it once per run for fields of thousands of nodes.
func TestBankInitReuseNoAlloc(t *testing.T) {
	b := NewBank()
	cfg := Config{Profile: Mica2(), Initial: Idle, Budget: Budget{CapacityJ: 1}}
	b.Init(64, cfg)
	b.SetState(5, Transmit, time.Second)
	allocs := testing.AllocsPerRun(10, func() {
		b.Init(64, cfg)
		b.Init(64, Config{Profile: Mica2(), Initial: Idle})
	})
	if allocs != 0 {
		t.Fatalf("warm Init allocated %v times per run, want 0", allocs)
	}
	if b.Finite(5) {
		t.Fatal("Init kept a finite budget from the earlier Init")
	}
	if got := b.EnergyAt(5, 0); got != 0 {
		t.Fatalf("Init did not clear accrued energy: %v", got)
	}
}
