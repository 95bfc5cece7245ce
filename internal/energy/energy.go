// Package energy models the sensor radio's power consumption. A Meter
// integrates power over the time a node spends in each radio state,
// reproducing the accounting behind the paper's "Joules consumed per update"
// metric with the Mica2 Mote power levels from Table 1.
package energy

import (
	"fmt"
	"math"
	"time"
)

// State is a radio power state.
type State int

// Radio power states. Receive and idle listening draw the same power on the
// Mica2 (the paper's PI covers both), but they are tracked separately so
// experiments can report an RX/idle breakdown.
const (
	Sleep State = iota + 1
	Idle
	Receive
	Transmit
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Sleep:
		return "sleep"
	case Idle:
		return "idle"
	case Receive:
		return "receive"
	case Transmit:
		return "transmit"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Profile gives the radio's power draw per state, in watts.
type Profile struct {
	TransmitW float64 // PTX
	ReceiveW  float64 // PI covers receive and idle listening
	IdleW     float64
	SleepW    float64 // PS
}

// Mica2 returns the power profile from Table 1 of the paper
// (Mica2 Mote: PTX=81 mW, PI=30 mW, PS=3 µW).
func Mica2() Profile {
	return Profile{
		TransmitW: 0.081,
		ReceiveW:  0.030,
		IdleW:     0.030,
		SleepW:    3e-6,
	}
}

// Power returns the draw in watts for the given state.
func (p Profile) Power(s State) float64 {
	switch s {
	case Sleep:
		return p.SleepW
	case Idle:
		return p.IdleW
	case Receive:
		return p.ReceiveW
	case Transmit:
		return p.TransmitW
	default:
		return 0
	}
}

// Meter integrates a single node's energy use across radio state changes.
// It is driven by the simulation clock: every state change (and final
// reading) supplies the current simulated time. A Meter with a finite
// Budget additionally tracks the remaining battery charge — drained by the
// same intervals the consumption accounting closes, recharged at the
// harvest rate, clamped at capacity — and answers depletion queries.
type Meter struct {
	profile Profile
	state   State
	since   time.Duration
	joules  float64
	inState [Transmit + 1]time.Duration

	// Battery (zero Budget = infinite, all three stay 0).
	capacityJ float64
	harvestW  float64
	level     float64
}

// New returns a meter configured by cfg — the primary constructor; the
// battery opens fully charged at Budget.CapacityJ.
func New(cfg Config) *Meter {
	return &Meter{
		profile:   cfg.Profile,
		state:     cfg.Initial,
		since:     cfg.Start,
		capacityJ: cfg.Budget.CapacityJ,
		harvestW:  cfg.Budget.HarvestW,
		level:     cfg.Budget.CapacityJ,
	}
}

// State returns the current radio state.
func (m *Meter) State() State { return m.state }

// SetState closes the current state interval at time now and switches to s.
// Setting the same state is a no-op for the accounting but still valid.
func (m *Meter) SetState(s State, now time.Duration) {
	m.accrue(now)
	m.state = s
}

// accrue charges the open interval [since, now) to the current state.
func (m *Meter) accrue(now time.Duration) {
	if now < m.since {
		// Events at identical timestamps can arrive in callback order that
		// appears to go "backwards" by zero; true regressions are bugs.
		now = m.since
	}
	dt := now - m.since
	power := m.profile.Power(m.state)
	m.joules += power * dt.Seconds()
	if m.capacityJ > 0 {
		m.level = charge(m.level, m.capacityJ, m.harvestW, power, dt.Seconds())
	}
	if m.state >= Sleep && m.state <= Transmit {
		m.inState[m.state] += dt
	}
	m.since = now
}

// Finite reports whether the meter's battery can run out.
func (m *Meter) Finite() bool { return m.capacityJ > 0 }

// RemainingAt returns the battery charge in joules at time now, including
// the currently open interval (clamped at capacity); +Inf for an infinite
// battery. Negative values mean the battery ran dry before now.
func (m *Meter) RemainingAt(now time.Duration) float64 {
	if m.capacityJ == 0 {
		return math.Inf(1)
	}
	return charge(m.level, m.capacityJ, m.harvestW, m.profile.Power(m.state), (now - m.since).Seconds())
}

// Depleted reports whether a finite battery has run out by time now.
func (m *Meter) Depleted(now time.Duration) bool {
	return m.capacityJ > 0 && m.RemainingAt(now) <= 0
}

// EnergyAt returns total joules consumed up to time now, including the
// currently open interval.
func (m *Meter) EnergyAt(now time.Duration) float64 {
	return m.joules + m.profile.Power(m.state)*(now-m.since).Seconds()
}

// TimeIn returns the closed-interval time spent in state s. Call SetState
// (or Finish) first if the open interval should be included.
func (m *Meter) TimeIn(s State) time.Duration {
	if s < Sleep || s > Transmit {
		return 0
	}
	return m.inState[s]
}

// Finish closes the open interval at time now; subsequent TimeIn calls
// include everything up to now.
func (m *Meter) Finish(now time.Duration) {
	m.accrue(now)
}

// DutyCycleEnergy returns the analytical per-node average power (watts) of a
// duty-cycled radio that is awake (idle) for active out of every frame and
// asleep otherwise — the model behind Equation 3 of the paper generalized to
// non-zero sleep power.
func DutyCycleEnergy(p Profile, active, frame time.Duration) float64 {
	if frame <= 0 {
		return 0
	}
	awake := active.Seconds() / frame.Seconds()
	return p.IdleW*awake + p.SleepW*(1-awake)
}
