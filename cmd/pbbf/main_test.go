package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pbbf/internal/bench"
	"pbbf/internal/scenario"
)

func TestList(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-list"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, id := range []string{"fig4", "fig12", "fig18", "table1", "table2", "extwakeup"} {
		if !strings.Contains(out, id) {
			t.Fatalf("list missing %s:\n%s", id, out)
		}
	}
	// Metadata must be visible: the paper-artifact column and parameter docs.
	for _, meta := range []string{"Figure 8", "Table 2", "stay-awake probability"} {
		if !strings.Contains(out, meta) {
			t.Fatalf("list missing metadata %q:\n%s", meta, out)
		}
	}
}

func TestRunJSON(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-experiment", "fig6", "-format", "json"}, &sb); err != nil {
		t.Fatal(err)
	}
	var outputs []scenario.Output
	if err := json.Unmarshal([]byte(sb.String()), &outputs); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	if len(outputs) != 1 || outputs[0].Scenario.ID != "fig6" {
		t.Fatalf("outputs: %+v", outputs)
	}
	o := outputs[0]
	if o.Table == nil || len(o.Table.Series) == 0 {
		t.Fatalf("JSON output lost the table: %+v", o)
	}
	if len(o.Points) == 0 || o.Points[0].Params["side"] == 0 {
		t.Fatalf("JSON output lost the per-point results: %+v", o.Points)
	}
}

func TestWorkersFlagDeterministic(t *testing.T) {
	outFor := func(workers string) string {
		var sb strings.Builder
		args := []string{"-experiment", "fig6", "-workers", workers}
		if err := run(args, &sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if outFor("1") != outFor("4") {
		t.Fatal("worker count changed experiment output")
	}
}

func TestRunSingleExperimentTable(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-experiment", "table1"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Table 1") {
		t.Fatalf("output:\n%s", sb.String())
	}
}

func TestRunFigureCSV(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-experiment", "fig7", "-format", "csv"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "p,") || !strings.Contains(out, "99% Reliability") {
		t.Fatalf("csv output:\n%s", out)
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{},                      // missing -experiment
		{"-experiment", "nope"}, // unknown experiment
		{"-experiment", "fig4", "-scale", "huge"},                   // unknown scale
		{"-experiment", "fig4", "-format", "xml"},                   // unknown format
		{"-experiment", "fig4", "-workers", "0"},                    // zero workers
		{"-experiment", "fig4", "-workers", "-3"},                   // negative workers
		{"-scale", "huge", "-experiment", "fig4"},                   // order must not matter
		{"-experiment", "fig13", "-energy", "NaN"},                  // non-finite battery
		{"-experiment", "fig13", "-energy", "+Inf"},                 // non-finite battery
		{"-experiment", "fig13", "-energy", "-1"},                   // negative battery
		{"-experiment", "fig13", "-energy", "1", "-harvest", "NaN"}, // non-finite harvest
		{"-experiment", "fig13", "-harvest", "0.01"},                // harvest without a battery
		{"-experiment", "fig13", "-protocol", "olaa"},               // unknown protocol
		{"bench", "-workers", "0"},                                  // bench: zero workers
		{"bench", "-scale", "huge"},                                 // bench: unknown scale
		{"bench", "-threshold", "0"},                                // bench: bad threshold
		{"bench", "-repeats", "0"},                                  // bench: bad repeats
		{"bench", "-out", ""},                                       // bench: empty output path
		{"bench", "stray"},                                          // bench: positional junk
		{"bench", "-baseline", "/nonexistent.json"},                 // bench: missing baseline
	}
	for _, args := range cases {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// TestUnknownExperimentSuggests pins the did-you-mean behaviour: a typo'd
// scenario ID must fail (non-zero exit through main) with the closest
// registered IDs in the message, in every mode that takes -experiment.
func TestUnknownExperimentSuggests(t *testing.T) {
	for _, args := range [][]string{
		{"-experiment", "figg8"},
		{"sweep", "-experiment", "figg8", "-progress=false"},
	} {
		var sb strings.Builder
		err := runCtx(context.Background(), args, &sb, io.Discard)
		if err == nil {
			t.Fatalf("args %v accepted", args)
		}
		if !strings.Contains(err.Error(), "did you mean") || !strings.Contains(err.Error(), "fig8") {
			t.Fatalf("args %v: error lacks a fig8 suggestion: %v", args, err)
		}
	}
	// Nothing close: fall back to the full known-ID list.
	var sb strings.Builder
	err := run([]string{"-experiment", "zzzzzz"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "known:") {
		t.Fatalf("no-suggestion error should list known IDs: %v", err)
	}
}

// TestRunNDJSON checks the ndjson format: one parseable JSON object per
// line, per-point lines in enumeration order, and a whole-table line for
// static artifacts.
func TestRunNDJSON(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-experiment", "fig6", "-format", "ndjson"}, &sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("ndjson produced %d lines", len(lines))
	}
	for _, line := range lines {
		var rec struct {
			Scenario string                `json:"scenario"`
			Point    *scenario.PointOutput `json:"point"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("invalid ndjson line %q: %v", line, err)
		}
		if rec.Scenario != "fig6" || rec.Point == nil {
			t.Fatalf("unexpected ndjson line %q", line)
		}
	}

	sb.Reset()
	if err := run([]string{"-experiment", "table1", "-format", "ndjson"}, &sb); err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Table any `json:"table"`
	}
	if err := json.Unmarshal([]byte(strings.TrimSpace(sb.String())), &rec); err != nil || rec.Table == nil {
		t.Fatalf("table scenario ndjson line bad (%v): %s", err, sb.String())
	}

	// Determinism across worker counts — the property the nightly CI
	// byte-diff depends on.
	outFor := func(workers string) string {
		var b strings.Builder
		if err := run([]string{"-experiment", "extlinkloss", "-format", "ndjson", "-workers", workers}, &b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if outFor("1") != outFor("4") {
		t.Fatal("ndjson output differs across worker counts")
	}
}

// benchArgs runs the bench subcommand at quick scale (the frozen bench
// scale is too slow for unit tests) and returns the report path.
func benchArgs(t *testing.T, dir string, extra ...string) (string, error) {
	t.Helper()
	path := filepath.Join(dir, "BENCH.json")
	args := append([]string{"bench", "-out", path, "-scale", "quick", "-repeats", "1"}, extra...)
	var sb strings.Builder
	err := run(args, &sb)
	return path, err
}

func TestBenchWritesValidReport(t *testing.T) {
	path, err := benchArgs(t, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := bench.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scale != "quick" || rep.Workers != 1 {
		t.Fatalf("report header: %+v", rep)
	}
	ids := make(map[string]bool)
	var sawEvents bool
	for _, s := range rep.Scenarios {
		ids[s.ID] = true
		if s.WallNS <= 0 || s.Points <= 0 {
			t.Fatalf("unmeasured scenario: %+v", s)
		}
		if s.EventsFired > 0 {
			sawEvents = true
		}
	}
	for _, id := range []string{"fig4", "fig13", "table1", "extwakeup"} {
		if !ids[id] {
			t.Fatalf("report missing %s (got %v)", id, ids)
		}
	}
	if !sawEvents {
		t.Fatal("no scenario recorded kernel events")
	}
}

func TestBenchGatesOnBaseline(t *testing.T) {
	dir := t.TempDir()
	path, err := benchArgs(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	// Against its own report nothing regresses by construction (identical
	// seeds, same machine, moments apart) at a generous threshold.
	if _, err := benchArgs(t, dir, "-baseline", path, "-threshold", "3.0"); err != nil {
		t.Fatalf("self-comparison failed: %v", err)
	}
	// Inflate the current run's cost bound: a baseline claiming everything
	// used to be instant must trip the gate.
	base, err := bench.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.Scenarios {
		base.Scenarios[i].NSPerPoint = 1
	}
	fast := filepath.Join(dir, "fast.json")
	if err := base.WriteFile(fast); err != nil {
		t.Fatal(err)
	}
	if _, err := benchArgs(t, dir, "-baseline", fast); err == nil {
		t.Fatal("regression vs instant baseline not detected")
	}
}

func TestBenchOverheadGate(t *testing.T) {
	dir := t.TempDir()
	// A gate of 100 (10000%) cannot trip: this exercises the interleaved
	// measurement and the report write, not the bound.
	path, err := benchArgs(t, dir, "-overhead-gate", "100")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep bench.OverheadReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Scale != "quick" || rep.Workers != 1 || len(rep.Results) == 0 {
		t.Fatalf("overhead report header: %+v", rep)
	}
	for _, r := range rep.Results {
		if r.UntracedNSPerPoint <= 0 || r.TracedNSPerPoint <= 0 || r.Points <= 0 {
			t.Fatalf("unmeasured scenario: %+v", r)
		}
	}

	// The gate measures both arms itself; combining it with the
	// cross-invocation comparison flags is a contradiction, not a noop.
	if _, err := benchArgs(t, dir, "-overhead-gate", "0.15", "-baseline", path); err == nil {
		t.Fatal("-overhead-gate with -baseline accepted")
	}
	if _, err := benchArgs(t, dir, "-overhead-gate", "0.15", "-trace", "discard"); err == nil {
		t.Fatal("-overhead-gate with -trace accepted")
	}
	// A negative gate must be rejected, not silently fall through to a
	// normal (ungated) bench run.
	if _, err := benchArgs(t, dir, "-overhead-gate", "-1"); err == nil {
		t.Fatal("negative -overhead-gate accepted")
	}
}

func TestSweepMatchesRunOutput(t *testing.T) {
	var direct, swept strings.Builder
	if err := run([]string{"-experiment", "fig6", "-format", "json"}, &direct); err != nil {
		t.Fatal(err)
	}
	err := runSweep(context.Background(),
		[]string{"-experiment", "fig6", "-format", "json", "-progress=false"},
		&swept, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if direct.String() != swept.String() {
		t.Fatal("sweep subcommand changed experiment output")
	}
}

// sweepArgs runs the sweep subcommand against a checkpoint file and
// returns (experiment output, progress/summary output).
func sweepArgs(t *testing.T, ckpt string, extra ...string) (string, string) {
	t.Helper()
	var out, errOut strings.Builder
	args := append([]string{"-experiment", "fig6", "-format", "json", "-checkpoint", ckpt}, extra...)
	if err := runSweep(context.Background(), args, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	return out.String(), errOut.String()
}

// TestSweepCheckpointResume is the resumability acceptance test: a sweep
// interrupted mid-run (simulated by deleting part of a completed
// checkpoint, exactly the state an atomic per-point flush leaves behind)
// resumes without recomputing the surviving points and reproduces the
// uninterrupted output byte for byte.
func TestSweepCheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "fig6.ckpt.json")

	first, progress := sweepArgs(t, ckpt)
	if !strings.Contains(progress, "resumed 0 point(s) from checkpoint") {
		t.Fatalf("first run progress: %q", progress)
	}
	cp, err := scenario.LoadCheckpoint(ckpt)
	if err != nil || cp == nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	total := len(cp.Results)
	if total == 0 {
		t.Fatal("checkpoint recorded no points")
	}

	// Simulate a kill partway through: keep only some completed points.
	kept := 0
	for key := range cp.Results {
		if kept >= total/2 {
			delete(cp.Results, key)
			continue
		}
		kept++
	}
	if err := cp.WriteFile(ckpt); err != nil {
		t.Fatal(err)
	}

	second, progress := sweepArgs(t, ckpt)
	if second != first {
		t.Fatal("resumed sweep changed experiment output")
	}
	want := fmt.Sprintf("resumed %d point(s) from checkpoint, computed %d", kept, total-kept)
	if !strings.Contains(progress, want) {
		t.Fatalf("resume summary %q missing %q", progress, want)
	}

	// A third run replays everything from the checkpoint.
	_, progress = sweepArgs(t, ckpt)
	if !strings.Contains(progress, fmt.Sprintf("resumed %d point(s) from checkpoint, computed 0", total)) {
		t.Fatalf("full resume summary: %q", progress)
	}
}

func TestSweepCheckpointRejectsMismatchedRun(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "fig6.ckpt.json")
	sweepArgs(t, ckpt)
	err := runSweep(context.Background(),
		[]string{"-experiment", "fig6", "-seed", "2", "-checkpoint", ckpt},
		io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "checkpoint records run") {
		t.Fatalf("mismatched checkpoint accepted: %v", err)
	}
}

func TestSweepProgressSummary(t *testing.T) {
	// The default progress mode is the periodic structured summary: the
	// run always ends with one "done" line carrying position and rate,
	// and never emits the classic per-point lines.
	var out, errOut strings.Builder
	if err := runSweep(context.Background(), []string{"-experiment", "fig6"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	progress := errOut.String()
	if !strings.Contains(progress, `"type":"done"`) || !strings.Contains(progress, `"rate_pps"`) {
		t.Fatalf("no summary progress line:\n%s", progress)
	}
	if strings.Contains(progress, "[1/") {
		t.Fatalf("per-point lines leaked into summary mode:\n%s", progress)
	}
	// Progress must stay off the experiment-output stream.
	if strings.Contains(out.String(), `"type":"done"`) {
		t.Fatal("progress leaked into experiment output")
	}
}

func TestSweepProgressEvery(t *testing.T) {
	// -progress-every N restores the classic per-point lines, thinned to
	// every Nth completion (plus the final one).
	var out, errOut strings.Builder
	if err := runSweep(context.Background(), []string{"-experiment", "fig6", "-progress-every", "1"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	progress := errOut.String()
	if !strings.Contains(progress, "fig6 series") || !strings.Contains(progress, "[1/") {
		t.Fatalf("no per-point progress lines:\n%s", progress)
	}
	if strings.Contains(progress, `"type":"done"`) {
		t.Fatalf("summary line leaked into per-point mode:\n%s", progress)
	}
	if strings.Contains(out.String(), "[1/") {
		t.Fatal("progress leaked into experiment output")
	}

	// Thinned: every 4th of fig6's points plus the final line.
	errOut.Reset()
	if err := runSweep(context.Background(), []string{"-experiment", "fig6", "-progress-every", "4"}, io.Discard, &errOut); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(errOut.String(), "[")
	if lines == 0 || lines >= strings.Count(progress, "[") {
		t.Fatalf("progress-every 4 emitted %d lines, want fewer than every-1's %d and more than 0",
			lines, strings.Count(progress, "["))
	}

	// A negative thinning interval is rejected.
	if err := runSweep(context.Background(), []string{"-experiment", "fig6", "-progress-every", "-1"}, io.Discard, io.Discard); err == nil {
		t.Fatal("negative -progress-every accepted")
	}
}

func TestSweepPprofRequiresDistribute(t *testing.T) {
	err := runSweep(context.Background(), []string{"-experiment", "fig6", "-pprof"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-pprof requires -distribute") {
		t.Fatalf("err = %v, want -pprof requires -distribute", err)
	}
}

func TestSweepCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := runSweep(ctx, []string{"-experiment", "fig6"}, io.Discard, io.Discard)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestServeListensAndShutsDown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var logs strings.Builder
	w := lockedWriter{mu: &mu, w: &logs}
	served := make(chan error, 1)
	go func() {
		served <- runServe(ctx, []string{"-addr", "127.0.0.1:0"}, io.Discard, w)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		s := logs.String()
		mu.Unlock()
		if strings.Contains(s, "listening on http://") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("serve never reported listening: %q", s)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not shut down")
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

func TestSubcommandErrors(t *testing.T) {
	cases := [][]string{
		{"sweep", "stray"},                                      // positional junk
		{"sweep", "-experiment", "nope"},                        // unknown experiment
		{"sweep", "-scale", "huge"},                             // unknown scale
		{"sweep", "-format", "xml"},                             // unknown format
		{"sweep", "-workers", "0"},                              // zero workers
		{"sweep", "-outstanding", "0"},                          // zero outstanding leases
		{"sweep", "-lease-ttl", "-3s"},                          // negative lease TTL
		{"sweep", "-distribute", "bad:addr:99"},                 // unbindable coordinator address
		{"sweep", "-energy", "NaN"},                             // non-finite battery
		{"trace", "-scenario", "fig13", "-energy", "+Inf"},      // non-finite battery
		{"trace", "-scenario", "fig13", "-harvest", "0.01"},     // harvest without a battery
		{"trace", "-scenario", "fig13", "-protocol", "olaa"},    // unknown protocol
		{"serve", "stray"},                                      // positional junk
		{"serve", "-cache-shards", "0"},                         // bad shard count
		{"serve", "-cache-entries", "1"},                        // capacity below shards
		{"serve", "-max-workers", "0"},                          // bad worker cap
		{"serve", "-addr", "not-a-valid:addr"},                  // unbindable address
		{"worker", "stray"},                                     // positional junk
		{"worker"},                                              // missing coordinator URL
		{"worker", "-coordinator", "http://x", "-workers", "0"}, // zero workers
		{"worker", "-coordinator", "http://x", "-batch", "-1"},  // negative batch
		{"serve", "-rate-limit", "-1"},                          // negative rate limit
		{"serve", "-run-queue", "-1"},                           // negative queue depth
		{"loadtest", "stray"},                                   // positional junk
		{"loadtest", "-requests", "0"},                          // zero requests
		{"loadtest", "-hit-fraction", "2"},                      // fraction out of range
		{"loadtest", "-out", ""},                                // missing report path
		{"loadtest", "-baseline", "no-such-file.json"},          // unreadable baseline
	}
	for _, args := range cases {
		var sb strings.Builder
		if err := runCtx(context.Background(), args, &sb, io.Discard); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// TestSweepDistributedMatchesLocal drives the whole CLI path: a sweep in
// coordinator mode, two worker subcommands attached over real HTTP (one
// cancelled mid-run), and the merged output compared byte-for-byte with a
// plain local sweep.
func TestSweepDistributedMatchesLocal(t *testing.T) {
	var local strings.Builder
	if err := runSweep(context.Background(),
		[]string{"-experiment", "fig6", "-format", "json", "-progress=false"},
		&local, io.Discard); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var out, errOut strings.Builder
	sweepDone := make(chan error, 1)
	go func() {
		sweepDone <- runSweep(context.Background(),
			[]string{"-experiment", "fig6", "-format", "json", "-progress=false",
				"-distribute", "127.0.0.1:0", "-lease-ttl", "500ms"},
			lockedWriter{mu: &mu, w: &out}, lockedWriter{mu: &mu, w: &errOut})
	}()

	// The coordinator announces its bound address on the progress stream.
	var url string
	deadline := time.Now().Add(10 * time.Second)
	for url == "" {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never announced its address: %q", errOut.String())
		}
		time.Sleep(10 * time.Millisecond)
		mu.Lock()
		if s := errOut.String(); strings.Contains(s, "listening on http://") {
			url = "http://" + strings.TrimSpace(strings.SplitAfter(s, "listening on http://")[1])
		}
		mu.Unlock()
	}

	workerCtx, killWorker := context.WithCancel(context.Background())
	defer killWorker()
	w1 := make(chan error, 1)
	go func() {
		w1 <- runWorker(context.Background(),
			[]string{"-coordinator", url, "-name", "w1", "-workers", "2"},
			io.Discard, io.Discard)
	}()
	go runWorker(workerCtx, // killed mid-run below; exit value irrelevant
		[]string{"-coordinator", url, "-name", "w2", "-workers", "1", "-batch", "2"},
		io.Discard, io.Discard)
	// Let w2 join the sweep, then kill it mid-run; its unreported lease
	// expires and the points are finished by w1.
	time.Sleep(300 * time.Millisecond)
	killWorker()

	select {
	case err := <-sweepDone:
		if err != nil {
			t.Fatalf("distributed sweep: %v", err)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("distributed sweep never finished")
	}
	select {
	case err := <-w1:
		if err != nil {
			t.Fatalf("worker: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker never exited after sweep completion")
	}

	mu.Lock()
	got := out.String()
	mu.Unlock()
	if got != local.String() {
		t.Fatalf("distributed output differs from local:\nlocal:\n%s\ndistributed:\n%s", local.String(), got)
	}
}

func TestSeedFlagChangesOutput(t *testing.T) {
	outFor := func(seed string) string {
		var sb strings.Builder
		if err := run([]string{"-experiment", "fig6", "-seed", seed}, &sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if outFor("1") == outFor("2") {
		t.Fatal("different seeds produced identical Monte Carlo output")
	}
	if outFor("1") != outFor("1") {
		t.Fatal("same seed produced different output")
	}
}

// TestServeAndLoadtest drives the full production-serving loop through the
// CLI: serve with a persistent store, load-test it, gate a second run
// against the first run's report, then restart the server on the same
// store directory and prove the warmed workload needs no recomputation.
func TestServeAndLoadtest(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "results.store")

	startServe := func() (cancel context.CancelFunc, url string, served chan error) {
		ctx, stop := context.WithCancel(context.Background())
		var mu sync.Mutex
		var logs strings.Builder
		served = make(chan error, 1)
		go func() {
			served <- runServe(ctx, []string{"-addr", "127.0.0.1:0", "-store", storeDir}, io.Discard, lockedWriter{mu: &mu, w: &logs})
		}()
		deadline := time.Now().Add(10 * time.Second)
		for {
			mu.Lock()
			s := logs.String()
			mu.Unlock()
			if i := strings.Index(s, "http://"); i >= 0 {
				url = strings.TrimSpace(strings.SplitN(s[i:], "\n", 2)[0])
				return stop, url, served
			}
			if time.Now().After(deadline) {
				stop()
				t.Fatalf("serve never reported listening: %q", s)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	stop1, url, served1 := startServe()
	reportPath := filepath.Join(dir, "LOADTEST.json")
	args := []string{
		"loadtest", "-target", url, "-experiment", "fig6", "-scale", "quick",
		"-requests", "30", "-concurrency", "4", "-warm-seeds", "2", "-out", reportPath,
	}
	var out strings.Builder
	if err := runCtx(context.Background(), args, &out, io.Discard); err != nil {
		t.Fatalf("loadtest: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "latency p50") {
		t.Fatalf("no latency summary:\n%s", out.String())
	}

	// A second run against its own report must pass the gate.
	out.Reset()
	gated := append(args, "-baseline", reportPath, "-threshold", "10", "-out", filepath.Join(dir, "LOADTEST2.json"))
	if err := runCtx(context.Background(), gated, &out, io.Discard); err != nil {
		t.Fatalf("gated loadtest: %v\n%s", err, out.String())
	}

	stop1()
	if err := <-served1; err != nil {
		t.Fatalf("serve shutdown: %v", err)
	}

	// Restart on the same store: the whole warmed workload is served from
	// disk — the done lines must report every point cached.
	stop2, url2, served2 := startServe()
	defer func() {
		stop2()
		if err := <-served2; err != nil {
			t.Fatalf("restarted serve shutdown: %v", err)
		}
	}()
	resp, err := http.Post(url2+"/v1/run", "application/json",
		strings.NewReader(`{"experiment":"fig6","scale":"quick","seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), `"cached":false`) {
		t.Fatalf("restarted server recomputed points:\n%s", raw)
	}
	if !strings.Contains(string(raw), `"type":"done"`) {
		t.Fatalf("restarted run did not complete:\n%s", raw)
	}
}
