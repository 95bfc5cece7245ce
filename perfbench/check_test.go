package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pbbf/internal/experiments"
	"pbbf/internal/scenario"
	"pbbf/internal/trace"
)

// The benchmark runs from the repository root; its tests run one level down.
var testGolden = filepath.Join("..", goldenPath)

func newTestBench() *bench {
	return &bench{log: io.Discard, metrics: map[string]metric{}, samples: map[string]int{}}
}

// goldenOutput rebuilds one scenario's output from its golden records.
func goldenOutput(t *testing.T, g golden, id string) scenario.Output {
	t.Helper()
	sc, err := experiments.Registry().ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	out := scenario.Output{Scenario: sc}
	for _, rec := range g[id] {
		var po scenario.PointOutput
		if err := json.Unmarshal(rec, &po); err != nil {
			t.Fatal(err)
		}
		out.Points = append(out.Points, po)
	}
	return out
}

func TestGoldenCheckTripsOnPerturbedResult(t *testing.T) {
	g, err := loadGolden(testGolden)
	if err != nil {
		t.Fatal(err)
	}
	out := goldenOutput(t, g, "fig13")
	if d := diffGolden(g, out); d != "" {
		t.Fatalf("golden records do not match themselves: %s", d)
	}
	want, err := digests([]scenario.Output{out})
	if err != nil {
		t.Fatal(err)
	}

	out.Points[3].Result.EnergyJ = math.Nextafter(out.Points[3].Result.EnergyJ, math.Inf(1))
	if d := diffGolden(g, out); !strings.Contains(d, "fig13 record 3") {
		t.Errorf("perturbed energy not caught: %q", d)
	}
	got, err := digests([]scenario.Output{out})
	if err != nil {
		t.Fatal(err)
	}
	if got["fig13"] == want["fig13"] {
		t.Error("perturbed energy left the sweep digest unchanged")
	}

	out.Points = out.Points[:len(out.Points)-1]
	if d := diffGolden(g, out); d == "" {
		t.Error("missing point not caught")
	}
}

// servedLines renders a scenario's golden points as the server streams
// them.
func servedLines(t *testing.T, out scenario.Output) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, po := range out.Points {
		if err := enc.Encode(pointLine{Type: "point", Scenario: out.Scenario.ID, PointOutput: po, Cached: true}); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestServedGoldenCheckTripsOnPerturbedLine(t *testing.T) {
	g, err := loadGolden(testGolden)
	if err != nil {
		t.Fatal(err)
	}
	out := goldenOutput(t, g, "extcompare")
	req := request{id: "extcompare", seed: 1}

	b := newTestBench()
	b.checkGoldenServed(g, map[request][]byte{req: servedLines(t, out)})
	if b.failed != 0 || b.attempted != 1 {
		t.Fatalf("unperturbed lines: %d of %d checks failed: %v", b.failed, b.attempted, b.problems)
	}

	out.Points[0].Result.Delivery = math.Nextafter(out.Points[0].Result.Delivery, math.Inf(1))
	b = newTestBench()
	b.checkGoldenServed(g, map[request][]byte{req: servedLines(t, out)})
	if b.failed != 1 {
		t.Fatalf("perturbed delivery not caught: %d failed", b.failed)
	}

	// Results of other seeds are not golden; they are left to the
	// byte-for-byte comparison with the warm phase.
	b = newTestBench()
	b.checkGoldenServed(g, map[request][]byte{{id: "extcompare", seed: 7}: servedLines(t, out)})
	if b.attempted != 0 {
		t.Errorf("non-golden seed was checked against the golden stream")
	}
}

func TestCountingProviderMergesRuns(t *testing.T) {
	var p countingProvider
	a, b := p.BeginRun(0), p.BeginRun(1)
	a.Record(trace.Event{Kind: trace.KindTxData})
	a.Record(trace.Event{Kind: trace.KindDeliver})
	b.Record(trace.Event{Kind: trace.KindDeliver})
	k := p.total()
	if k[trace.KindTxData] != 1 || k[trace.KindDeliver] != 2 {
		t.Errorf("counts %v", k)
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median %v", m)
	}
	if m := median([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
	if q := quantile(xs, 0.99); q != 5 {
		t.Errorf("p99 %v", q)
	}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("p50 %v", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("empty quantile %v", q)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps the benchmark's declaration at the
// repository root in step with the metrics this program prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", decl.EndToEnd, endToEnd)
	compare("per_layer", decl.PerLayer, perLayer)
	for _, w := range decl.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not one of the program's %v", w.Name, workloadNames())
		}
	}
}

func TestUnknownWorkloadIsAnError(t *testing.T) {
	code, err := run([]string{"--workload", "nope"}, io.Discard, io.Discard)
	if code == 0 || err == nil {
		t.Errorf("unknown workload: code %d, err %v", code, err)
	}
}

// received feeds lines to a stream the way run does.
func received(lines, want []byte) stream {
	st := stream{status: 200, done: true}
	for _, line := range bytes.SplitAfter(lines, []byte("\n")) {
		if len(line) > 0 {
			st.addPoint(line, want)
		}
	}
	return st
}

func TestStreamCheckTripsOnPerturbedLine(t *testing.T) {
	g, err := loadGolden(testGolden)
	if err != nil {
		t.Fatal(err)
	}
	out := goldenOutput(t, g, "fig14")
	want := servedLines(t, out)
	if p := streamProblem(received(want, want), nil, want); p != "" {
		t.Fatalf("identical stream flagged: %s", p)
	}

	out.Points[1].Result.LatencyS = math.Nextafter(out.Points[1].Result.LatencyS, math.Inf(-1))
	perturbed := servedLines(t, out)
	if p := streamProblem(received(perturbed, want), nil, want); p == "" {
		t.Error("perturbed latency not caught")
	}
	short := want[:bytes.LastIndexByte(want[:len(want)-1], '\n')+1]
	refused := stream{status: 429}
	truncated := received(want, want)
	truncated.done = false
	for name, st := range map[string]stream{
		"missing line": received(short, want),
		"refused":      refused,
		"no done line": truncated,
	} {
		if p := streamProblem(st, nil, want); p == "" {
			t.Errorf("%s not caught", name)
		}
	}
}
