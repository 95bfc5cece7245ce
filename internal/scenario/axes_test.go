package scenario

import (
	"flag"
	"math"
	"testing"
)

// TestAxesValidate is the axis validation table. Every front door — the
// CLI, POST /v1/run, PointSpec.Run — reaches it through Scale.Validate.
func TestAxesValidate(t *testing.T) {
	cases := []struct {
		name string
		axes Axes
		ok   bool
	}{
		{"defaults", Axes{}, true},
		{"protocol", Axes{Protocol: "sleepsched"}, true},
		{"finite battery", Axes{EnergyJ: 2}, true},
		{"finite battery with harvest", Axes{EnergyJ: 2, HarvestW: 0.005}, true},
		{"unknown protocol", Axes{Protocol: "olaa"}, false},
		{"non-canonical protocol", Axes{Protocol: "PBBF"}, false},
		{"negative energy", Axes{EnergyJ: -1}, false},
		{"NaN energy", Axes{EnergyJ: math.NaN()}, false},
		{"+Inf energy", Axes{EnergyJ: math.Inf(1)}, false},
		{"negative harvest", Axes{EnergyJ: 2, HarvestW: -0.1}, false},
		{"NaN harvest", Axes{EnergyJ: 2, HarvestW: math.NaN()}, false},
		{"+Inf harvest", Axes{EnergyJ: 2, HarvestW: math.Inf(1)}, false},
		{"harvest without battery", Axes{HarvestW: 0.005}, false},
	}
	sc := specScenario()
	reg := NewRegistry()
	reg.MustRegister(sc)
	for _, c := range cases {
		s := Quick()
		s.Axes = c.axes
		if err := s.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
		pts, err := sc.Points(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewPointSpec(sc, s, pts[0]).Run(reg); (err == nil) != c.ok {
			t.Errorf("%s: PointSpec.Run = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestAxesCanonical: JSON-decoded axes fold to the spelling flags parse
// to, so both front doors key one workload identically.
func TestAxesCanonical(t *testing.T) {
	for _, spelling := range []string{"", "pbbf", " PBBF "} {
		got, err := Axes{Protocol: spelling, EnergyJ: 2}.Canonical()
		if err != nil || got != (Axes{EnergyJ: 2}) {
			t.Fatalf("Canonical(%q) = %+v, %v", spelling, got, err)
		}
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		a := AxisFlags(fs)
		if err := fs.Parse([]string{"-protocol", spelling, "-energy", "2"}); err != nil || *a != got {
			t.Fatalf("-protocol %q parsed to %+v (%v), JSON to %+v", spelling, *a, err, got)
		}
	}
	if _, err := (Axes{Protocol: "olaa"}).Canonical(); err == nil {
		t.Fatal("unknown protocol canonicalised")
	}
}
