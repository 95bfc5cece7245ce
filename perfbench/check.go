package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"pbbf/internal/scenario"
	"pbbf/internal/trace"
)

// goldenPath is the program's committed quick-scale result stream, read
// from the repository root the benchmark runs in.
const goldenPath = "cmd/pbbf/testdata/golden_quick.ndjson"

// golden holds, per scenario, the JSON of each point (or of the table, for
// a TableFn scenario) in enumeration order.
type golden map[string][]json.RawMessage

func loadGolden(path string) (golden, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("golden results: %w", err)
	}
	g := make(golden)
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line struct {
			Scenario string          `json:"scenario"`
			Point    json.RawMessage `json:"point"`
			Table    json.RawMessage `json:"table"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("golden results: %w", err)
		}
		rec := line.Point
		if rec == nil {
			rec = line.Table
		}
		g[line.Scenario] = append(g[line.Scenario], rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("golden results: %w", err)
	}
	return g, nil
}

// diffGolden compares one scenario's output with its golden records and
// describes the first difference, or returns "" when they match.
func diffGolden(g golden, out scenario.Output) string {
	want, ok := g[out.Scenario.ID]
	if !ok {
		return fmt.Sprintf("%s: no golden records", out.Scenario.ID)
	}
	var got [][]byte
	if out.Scenario.PointBased() {
		for i := range out.Points {
			b, err := json.Marshal(out.Points[i])
			if err != nil {
				return err.Error()
			}
			got = append(got, b)
		}
	} else {
		b, err := json.Marshal(out.Table)
		if err != nil {
			return err.Error()
		}
		got = append(got, b)
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%s: %d records, golden has %d", out.Scenario.ID, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			return fmt.Sprintf("%s record %d: got %s, golden %s", out.Scenario.ID, i, got[i], want[i])
		}
	}
	return ""
}

// digests fingerprints each scenario's output: every point result and the
// assembled table, in enumeration order.
func digests(outs []scenario.Output) (map[string]string, error) {
	d := make(map[string]string, len(outs))
	for _, out := range outs {
		b, err := json.Marshal(out)
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(b)
		d[out.Scenario.ID] = hex.EncodeToString(sum[:8])
	}
	return d, nil
}

// kindCounts counts trace events by kind.
type kindCounts [32]uint64

func (c *kindCounts) Record(ev trace.Event) { c[int(ev.Kind)%len(c)]++ }

// countingProvider is a trace.Provider whose sinks count events by kind.
// Each simulated run gets its own counter, so the hot path takes no lock;
// total merges them once the sweep is over.
type countingProvider struct {
	mu   sync.Mutex
	runs []*kindCounts
}

func (p *countingProvider) BeginRun(int) trace.Sink {
	c := new(kindCounts)
	p.mu.Lock()
	p.runs = append(p.runs, c)
	p.mu.Unlock()
	return c
}

func (p *countingProvider) total() kindCounts {
	p.mu.Lock()
	defer p.mu.Unlock()
	var t kindCounts
	for _, c := range p.runs {
		for k, n := range c {
			t[k] += n
		}
	}
	return t
}
