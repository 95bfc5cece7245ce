package energy

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"pbbf/internal/rng"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMica2Values(t *testing.T) {
	p := Mica2()
	if p.TransmitW != 0.081 {
		t.Fatalf("PTX = %v", p.TransmitW)
	}
	if p.ReceiveW != 0.030 || p.IdleW != 0.030 {
		t.Fatalf("PI = %v/%v", p.ReceiveW, p.IdleW)
	}
	if p.SleepW != 3e-6 {
		t.Fatalf("PS = %v", p.SleepW)
	}
}

func TestStateString(t *testing.T) {
	cases := map[State]string{
		Sleep:     "sleep",
		Idle:      "idle",
		Receive:   "receive",
		Transmit:  "transmit",
		State(99): "State(99)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", s, got, want)
		}
	}
}

func TestProfilePowerUnknownState(t *testing.T) {
	if got := Mica2().Power(State(0)); got != 0 {
		t.Fatalf("unknown state power = %v", got)
	}
}

func TestMeterSingleState(t *testing.T) {
	m := New(Config{Profile: Mica2(), Initial: Idle})
	got := m.EnergyAt(10 * time.Second)
	if !almostEqual(got, 0.3, 1e-9) {
		t.Fatalf("10s idle = %v J, want 0.3", got)
	}
}

func TestMeterTransitions(t *testing.T) {
	m := New(Config{Profile: Mica2(), Initial: Idle})
	m.SetState(Transmit, 1*time.Second) // 1s idle
	m.SetState(Sleep, 2*time.Second)    // 1s transmit
	m.SetState(Idle, 12*time.Second)    // 10s sleep
	got := m.EnergyAt(13 * time.Second) // 1s idle
	want := 0.030 + 0.081 + 10*3e-6 + 0.030
	if !almostEqual(got, want, 1e-9) {
		t.Fatalf("energy = %v, want %v", got, want)
	}
}

func TestMeterTimeIn(t *testing.T) {
	m := New(Config{Profile: Mica2(), Initial: Sleep})
	m.SetState(Idle, 5*time.Second)
	m.SetState(Sleep, 7*time.Second)
	m.Finish(10 * time.Second)
	if got := m.TimeIn(Sleep); got != 8*time.Second {
		t.Fatalf("sleep time = %v", got)
	}
	if got := m.TimeIn(Idle); got != 2*time.Second {
		t.Fatalf("idle time = %v", got)
	}
	if got := m.TimeIn(Transmit); got != 0 {
		t.Fatalf("transmit time = %v", got)
	}
	if got := m.TimeIn(State(42)); got != 0 {
		t.Fatalf("bogus state time = %v", got)
	}
}

func TestMeterSameStateNoOp(t *testing.T) {
	m := New(Config{Profile: Mica2(), Initial: Idle})
	m.SetState(Idle, 5*time.Second)
	got := m.EnergyAt(10 * time.Second)
	if !almostEqual(got, 0.3, 1e-9) {
		t.Fatalf("energy = %v", got)
	}
}

func TestMeterClockRegressionClamped(t *testing.T) {
	m := New(Config{Profile: Mica2(), Initial: Idle, Start: 10 * time.Second})
	// Same-timestamp callbacks may call with an equal or (never truly
	// earlier) clamped time; energy must not go negative.
	m.SetState(Sleep, 10*time.Second)
	if got := m.EnergyAt(10 * time.Second); got != 0 {
		t.Fatalf("energy = %v, want 0", got)
	}
}

func TestDutyCycleEnergy(t *testing.T) {
	p := Mica2()
	// Table 1: Tactive=1s, Tframe=10s → 10% duty.
	got := DutyCycleEnergy(p, time.Second, 10*time.Second)
	want := 0.030*0.1 + 3e-6*0.9
	if !almostEqual(got, want, 1e-12) {
		t.Fatalf("duty cycle power = %v, want %v", got, want)
	}
	if DutyCycleEnergy(p, time.Second, 0) != 0 {
		t.Fatal("zero frame did not return 0")
	}
}

func TestDutyCycleAlwaysOn(t *testing.T) {
	p := Mica2()
	got := DutyCycleEnergy(p, 10*time.Second, 10*time.Second)
	if !almostEqual(got, p.IdleW, 1e-12) {
		t.Fatalf("always-on power = %v", got)
	}
}

// Property: total energy equals sum over states of power×time, and total
// tracked time equals the metering horizon.
func TestPropertyEnergyConservation(t *testing.T) {
	states := []State{Sleep, Idle, Receive, Transmit}
	check := func(seed uint64) bool {
		r := rng.New(seed)
		p := Mica2()
		m := New(Config{Profile: p, Initial: Idle})
		now := time.Duration(0)
		for i := 0; i < 50; i++ {
			now += time.Duration(r.Intn(5000)) * time.Millisecond
			m.SetState(states[r.Intn(len(states))], now)
		}
		now += time.Second
		m.Finish(now)
		var wantJ float64
		var total time.Duration
		for _, s := range states {
			wantJ += p.Power(s) * m.TimeIn(s).Seconds()
			total += m.TimeIn(s)
		}
		return almostEqual(m.EnergyAt(now), wantJ, 1e-9) && total == now
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: energy is monotone non-decreasing in time.
func TestPropertyMonotoneEnergy(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		m := New(Config{Profile: Mica2(), Initial: Sleep})
		now := time.Duration(0)
		prev := 0.0
		states := []State{Sleep, Idle, Receive, Transmit}
		for i := 0; i < 30; i++ {
			now += time.Duration(r.Intn(1000)+1) * time.Millisecond
			e := m.EnergyAt(now)
			if e < prev-1e-12 {
				return false
			}
			prev = e
			m.SetState(states[r.Intn(len(states))], now)
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMeterSetState(b *testing.B) {
	m := New(Config{Profile: Mica2(), Initial: Idle})
	for i := 0; i < b.N; i++ {
		m.SetState(State(i%4+1), time.Duration(i)*time.Millisecond)
	}
}
