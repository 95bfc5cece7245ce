package scenario

import (
	"flag"
	"fmt"
	"math"
	"strconv"
	"strings"

	"pbbf/internal/protocol"
)

// Axes are the run axes: settings that apply to every network scenario of
// a run and move it across the energy-latency trade-off surface — which
// broadcast protocol runs, and on what battery. Each zero value is the
// paper's setting and is omitted from PointKeys, checkpoint headers and
// JSON, so every identity minted before an axis existed is still valid.
// Scenarios that pin an axis themselves (the adaptive-control,
// cross-protocol and lifetime families) ignore the run's value.
//
// Every surface that carries the axes — PointKey, checkpoint identity,
// POST /v1/run, the run and trace headers, the CLI flags — derives them
// from axisTable. Adding an axis is one field here and one row there.
type Axes struct {
	// Protocol selects the broadcast protocol (see internal/protocol).
	// Empty means PBBF; its spelling "pbbf" is folded to empty, so the
	// default has exactly one identity.
	Protocol string `json:"protocol,omitempty"`
	// EnergyJ, when positive, gives every node a finite battery with this
	// mean initial capacity in joules; 0 keeps the infinite battery.
	EnergyJ float64 `json:"energy_j,omitempty"`
	// HarvestW recharges finite batteries at a constant per-node rate in
	// watts (requires EnergyJ > 0).
	HarvestW float64 `json:"harvest_w,omitempty"`
}

// Axis is one row of the axis table: the names an axis goes by on each
// surface. Its JSON name must equal the json tag of the matching Axes
// field (a test pins the two together).
type Axis struct {
	// Flag is the CLI flag name; Usage its help text.
	Flag, Usage string
	// Tag names the axis in PointKeys ("|tag=value").
	Tag string
	// JSON names the axis in request bodies, checkpoint and stream headers.
	JSON string
	// Example is a valid non-default value, shown in the flag help.
	Example string

	// text renders the axis value in canonical form, or "" at the default
	// — the omit-when-default rule every surface shares.
	text func(Axes) string
	// parse sets the axis from text, canonicalising it.
	parse func(*Axes, string) error
	// check validates the value; it may consult the other axes.
	check func(Axes) error
}

var axisTable = []Axis{
	{
		Flag: "protocol", Tag: "proto", JSON: "protocol", Example: "ola",
		Usage: "broadcast protocol for network scenarios: pbbf (default), sleepsched, or ola",
		text:  func(a Axes) string { return a.Protocol },
		parse: func(a *Axes, s string) error {
			sp, err := protocol.SpecFor(s)
			if err != nil {
				return err
			}
			a.Protocol = sp.Canonical()
			return nil
		},
		check: func(a Axes) error {
			sp, err := protocol.SpecFor(a.Protocol)
			if err == nil && sp.Canonical() != a.Protocol {
				err = fmt.Errorf("scenario: protocol %q is not in canonical form %q", a.Protocol, sp.Canonical())
			}
			return err
		},
	},
	{
		Flag: "energy", Tag: "energy", JSON: "energy_j", Example: "2",
		Usage: "mean initial battery capacity in joules for network scenarios (0 = infinite battery)",
		text:  func(a Axes) string { return floatText(a.EnergyJ) },
		parse: func(a *Axes, s string) (err error) { a.EnergyJ, err = strconv.ParseFloat(s, 64); return err },
		check: func(a Axes) error { return finiteNonNegative("initial energy", a.EnergyJ) },
	},
	{
		Flag: "harvest", Tag: "harvest", JSON: "harvest_w", Example: "0.005",
		Usage: "constant per-node energy-harvest rate in watts (requires -energy)",
		text:  func(a Axes) string { return floatText(a.HarvestW) },
		parse: func(a *Axes, s string) (err error) { a.HarvestW, err = strconv.ParseFloat(s, 64); return err },
		check: func(a Axes) error {
			if err := finiteNonNegative("harvest rate", a.HarvestW); err != nil {
				return err
			}
			if a.HarvestW > 0 && a.EnergyJ == 0 {
				return fmt.Errorf("scenario: harvest rate %v requires a positive initial energy", a.HarvestW)
			}
			return nil
		},
	},
}

// AxisTable returns the rows of the axis table, in key order.
func AxisTable() []Axis { return append([]Axis(nil), axisTable...) }

func floatText(v float64) string {
	if v == 0 {
		return ""
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// finiteNonNegative rejects negative values and, since neither a battery
// nor a harvest rate can be NaN or infinite, non-finite ones.
func finiteNonNegative(what string, v float64) error {
	if !(v >= 0) || math.IsInf(v, 0) {
		return fmt.Errorf("scenario: %s %v must be finite and non-negative", what, v)
	}
	return nil
}

// Validate checks every axis.
func (a Axes) Validate() error {
	for i := range axisTable {
		if err := axisTable[i].check(a); err != nil {
			return err
		}
	}
	return nil
}

// Canonical returns a with every axis in canonical form — a protocol named
// "PBBF" becomes the empty default — or the first value that does not
// parse. It is the front door for axes decoded from JSON; flags parse into
// canonical form already.
func (a Axes) Canonical() (Axes, error) {
	for i := range axisTable {
		r := &axisTable[i]
		// Re-parsing the text form canonicalises: floats round-trip
		// exactly, protocol names resolve through the protocol registry.
		if v := r.text(a); v != "" {
			if err := r.parse(&a, v); err != nil {
				return a, err
			}
		}
	}
	return a, nil
}

// write appends sep+name=value for every axis off its default, naming each
// by its key tag (key) or its flag. At the defaults it writes nothing and
// allocates nothing.
func (a Axes) write(sb *strings.Builder, sep byte, key bool) {
	for i := range axisTable {
		r := &axisTable[i]
		v := r.text(a)
		if v == "" {
			continue
		}
		sb.WriteByte(sep)
		if key {
			sb.WriteString(r.Tag)
		} else {
			sb.WriteString(r.Flag)
		}
		sb.WriteByte('=')
		sb.WriteString(v)
	}
}

// AxisFlags declares one flag per axis on fs and returns the Axes they
// parse into. Every flag canonicalises as it parses; call Validate after
// fs.Parse.
func AxisFlags(fs *flag.FlagSet) *Axes {
	a := new(Axes)
	for i := range axisTable {
		r := &axisTable[i]
		fs.Var(axisFlag{r, a}, r.Flag, r.Usage+" (e.g. "+r.Example+")")
	}
	return a
}

// axisFlag is the flag.Value of one axis.
type axisFlag struct {
	row *Axis
	a   *Axes
}

func (f axisFlag) String() string {
	if f.a == nil { // the flag package probes a zero Value for its default
		return ""
	}
	return f.row.text(*f.a)
}

func (f axisFlag) Set(s string) error { return f.row.parse(f.a, s) }
