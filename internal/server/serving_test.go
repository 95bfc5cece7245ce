package server

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pbbf/internal/scenario"
	"pbbf/internal/store"
)

// countingRegistry is testRegistry's "fast" scenario with a computation
// counter, so tests can prove how many points were actually simulated.
func countingRegistry(t *testing.T, computes *atomic.Int64) *scenario.Registry {
	t.Helper()
	reg := scenario.NewRegistry()
	reg.MustRegister(scenario.Scenario{
		ID: "fast", Title: "fast scenario", Artifact: "extension",
		Summary: "server test scenario",
		Params:  []scenario.ParamDoc{{Name: "x", Desc: "x coordinate"}},
		XLabel:  "x", YLabel: "y",
		Points: func(s scenario.Scale) ([]scenario.Point, error) {
			var pts []scenario.Point
			for _, series := range []string{"a", "b"} {
				for x := 0.0; x < 3; x++ {
					pts = append(pts, scenario.Point{
						Series: series, X: x, Params: map[string]float64{"x": x},
					})
				}
			}
			return pts, nil
		},
		RunPoint: func(s scenario.Scale, pt scenario.Point) (scenario.Result, error) {
			computes.Add(1)
			return scenario.Result{Y: pt.X * 10, Delivery: 1}, nil
		},
	})
	return reg
}

// rawRun posts a run request and returns the raw NDJSON lines verbatim —
// the byte-identity currency of the restart-recovery test.
func rawRun(t *testing.T, url, body string) []string {
	t.Helper()
	resp, err := http.Post(url+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestRestartRecovery is the tentpole acceptance check: a server killed
// and restarted on the same store directory serves byte-identical results
// without recomputing a single point, proven by the scenario's own compute
// counter, the flight counters, and the disk tier's hit counters.
func TestRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	body := `{"experiment":"fast","scale":"quick","workers":2}`

	var computes1 atomic.Int64
	srv1, err := New(Options{
		Registry: countingRegistry(t, &computes1),
		Disk:     StoreOptions{Dir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1)

	cold := rawRun(t, ts1.URL, body)
	if computes1.Load() != 6 {
		t.Fatalf("cold run computed %d points, want 6", computes1.Load())
	}
	// The warm run on the same process is the reference stream: every
	// point served from the store, flagged cached.
	warm := rawRun(t, ts1.URL, body)
	if computes1.Load() != 6 {
		t.Fatalf("warm run recomputed: %d", computes1.Load())
	}
	if len(cold) != len(warm) {
		t.Fatalf("stream shapes differ: %d vs %d lines", len(cold), len(warm))
	}
	for _, line := range warm[1 : len(warm)-1] {
		if !strings.Contains(line, `"cached":true`) {
			t.Fatalf("warm line not cached: %s", line)
		}
	}

	// Kill the first server. Its memory tier dies with it; only the store
	// directory survives.
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	var computes2 atomic.Int64
	srv2, err := New(Options{
		Registry: countingRegistry(t, &computes2),
		Disk:     StoreOptions{Dir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	defer srv2.Close()

	restarted := rawRun(t, ts2.URL, body)
	if computes2.Load() != 0 {
		t.Fatalf("restarted server simulated %d points, want 0", computes2.Load())
	}
	// Byte identity, excluding the final done line (it carries wall time
	// and live counters by design).
	if len(restarted) != len(warm) {
		t.Fatalf("restarted stream has %d lines, want %d", len(restarted), len(warm))
	}
	for i := range warm[:len(warm)-1] {
		if restarted[i] != warm[i] {
			t.Fatalf("line %d differs after restart:\n  warm:      %s\n  restarted: %s", i, warm[i], restarted[i])
		}
	}

	// The counters must prove where the bytes came from: zero flight
	// computes, six disk hits promoted into memory.
	var st statsResponse
	getJSON(t, ts2.URL+"/v1/stats", &st)
	if st.FlightV1.Computes != 0 {
		t.Fatalf("flight computed after restart: %+v", st.FlightV1)
	}
	if st.StoreV1.Kind != "tiered" || len(st.StoreV1.Tiers) != 2 {
		t.Fatalf("store shape: %+v", st.StoreV1)
	}
	disk := st.StoreV1.Tiers[1]
	if disk.Kind != "disk" || disk.Hits != 6 || disk.Entries != 6 {
		t.Fatalf("disk tier after restart: %+v", disk)
	}
	if st.Cache.Entries != 6 {
		t.Fatalf("disk hits not promoted to memory: %+v", st.Cache)
	}

	// And the promoted working set serves the next run from memory.
	diskHits := disk.Hits
	rawRun(t, ts2.URL, body)
	getJSON(t, ts2.URL+"/v1/stats", &st)
	if st.StoreV1.Tiers[1].Hits != diskHits {
		t.Fatalf("second restarted run fell through to disk: %+v", st.StoreV1.Tiers[1])
	}
}

// TestRateLimit429 drives one client through its token bucket: Burst
// requests pass, the next answers 429 with a positive Retry-After, and
// the denial shows up in /v1/stats.
func TestRateLimit429(t *testing.T) {
	srv, err := New(Options{
		Registry: testRegistry(t),
		Limits:   LimitOptions{RatePerSec: 0.5, Burst: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := `{"experiment":"statictbl","scale":"quick"}`
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d inside burst: status %d", i, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-burst status %d, want 429", resp.StatusCode)
	}
	retry, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Fatalf("Retry-After %q", resp.Header.Get("Retry-After"))
	}
	// Reads are not rate limited — only the run path spends tokens.
	var st statsResponse
	if r := getJSON(t, ts.URL+"/v1/stats", &st); r.StatusCode != http.StatusOK {
		t.Fatalf("stats throttled: %d", r.StatusCode)
	}
	if !st.LimitsV1.RateLimitEnabled || st.LimitsV1.RateLimited != 1 || st.LimitsV1.Clients != 1 {
		t.Fatalf("limit stats: %+v", st.LimitsV1)
	}
}

// TestBackpressureShed fills the admission gate — one running, one
// queued — and checks the next arrival is shed immediately with 429 +
// Retry-After rather than queued without bound.
func TestBackpressureShed(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	reg := scenario.NewRegistry()
	reg.MustRegister(scenario.Scenario{
		ID: "slow", Title: "slow", Artifact: "extension", Summary: "blocks",
		Params: []scenario.ParamDoc{{Name: "x", Desc: "x"}},
		XLabel: "x", YLabel: "y",
		Points: func(scenario.Scale) ([]scenario.Point, error) {
			return []scenario.Point{{Series: "a", X: 1, Params: map[string]float64{"x": 1}}}, nil
		},
		RunPoint: func(scenario.Scale, scenario.Point) (scenario.Result, error) {
			started <- struct{}{}
			<-release
			return scenario.Result{Y: 1}, nil
		},
	})
	srv, err := New(Options{
		Registry: reg,
		Limits:   LimitOptions{MaxConcurrentRuns: 1, RunQueueDepth: 1, RetryAfter: 3 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer close(release)

	// Distinct seeds so the queued run cannot be served from the cache.
	post := func(seed int) (*http.Response, error) {
		body := `{"experiment":"slow","scale":"quick","seed":` + strconv.Itoa(seed) + `}`
		return http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // occupies the single run slot
		defer wg.Done()
		if resp, err := post(1); err == nil {
			io.ReadAll(resp.Body) //nolint:errcheck
			resp.Body.Close()
		}
	}()
	<-started

	wg.Add(1)
	go func() { // fills the queue
		defer wg.Done()
		if resp, err := post(2); err == nil {
			io.ReadAll(resp.Body) //nolint:errcheck
			resp.Body.Close()
		}
	}()
	// Wait until the second run is visibly queued.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var st statsResponse
		getJSON(t, ts.URL+"/v1/stats", &st)
		if st.LimitsV1.Waiting == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("second run never queued: %+v", st.LimitsV1)
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := post(3) // beyond the queue: shed
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "3" {
		t.Fatalf("Retry-After %q, want 3", resp.Header.Get("Retry-After"))
	}

	var st statsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.LimitsV1.Shed != 1 || st.LimitsV1.Running != 1 || st.LimitsV1.MaxConcurrentRuns != 1 || st.LimitsV1.QueueDepth != 1 {
		t.Fatalf("limit stats: %+v", st.LimitsV1)
	}
}

// TestMetricsEndpoint exercises /metrics after real traffic: the
// Prometheus text format, per-route counters and histograms, and the
// store/flight/limit families.
func TestMetricsEndpoint(t *testing.T) {
	srv, err := New(Options{Registry: testRegistry(t), Disk: StoreOptions{Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	postRun(t, ts, `{"experiment":"fast","scale":"quick"}`)
	postRun(t, ts, `{"experiment":"fast","scale":"quick"}`)
	resp, err := http.Get(ts.URL + "/v1/scenarios/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		`pbbf_http_requests_total{route="POST /v1/run",method="POST",code="200"} 2`,
		`pbbf_http_requests_total{route="GET /v1/scenarios/{id}",method="GET",code="404"} 1`,
		`pbbf_http_request_duration_seconds_bucket{route="POST /v1/run",le="+Inf"} 2`,
		`pbbf_http_request_duration_seconds_count{route="POST /v1/run"} 2`,
		"# TYPE pbbf_http_request_duration_seconds histogram",
		`pbbf_store_hits_total{tier="memory"} 6`,
		`pbbf_store_puts_total{tier="disk"} 6`,
		`pbbf_store_quarantined_total{tier="disk"} 0`,
		"pbbf_flight_computes_total 6",
		"pbbf_points_inflight 0",
		"pbbf_runs_total 2",
		"pbbf_points_served_total 12", // 2 runs x 6 points
		"pbbf_rate_limited_total 0",
		"pbbf_runs_shed_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestOptionsValidation pins the normalized() contract: conflicting
// settings and bad bounds are rejected.
func TestOptionsValidation(t *testing.T) {
	reg := scenario.NewRegistry()
	mem, err := store.NewMemory(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name string
		opts Options
	}{
		{"nil registry", Options{}},
		{"results conflicts with mem", Options{Registry: reg, Results: mem, Mem: CacheOptions{Shards: 4}}},
		{"results conflicts with disk", Options{Registry: reg, Results: mem, Disk: StoreOptions{Dir: "x"}}},
		{"negative rate", Options{Registry: reg, Limits: LimitOptions{RatePerSec: -1}}},
		{"negative burst", Options{Registry: reg, Limits: LimitOptions{Burst: -1}}},
		{"negative queue", Options{Registry: reg, Limits: LimitOptions{RunQueueDepth: -1}}},
		{"negative retry-after", Options{Registry: reg, Limits: LimitOptions{RetryAfter: -time.Second}}},
		{"negative shards", Options{Registry: reg, Mem: CacheOptions{Shards: -1}}},
	}
	for _, tc := range bad {
		if _, err := New(tc.opts); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	var st statsResponse
	// An injected Results store replaces the whole composition.
	srv2, err := New(Options{Registry: testRegistry(t), Results: mem})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	postRun(t, ts2, `{"experiment":"fast","scale":"quick"}`)
	if mem.Len() != 6 {
		t.Fatalf("injected store bypassed: len %d", mem.Len())
	}
	getJSON(t, ts2.URL+"/v1/stats", &st)
	if st.StoreV1.Kind != "memory" || st.Cache.Shards != 0 {
		t.Fatalf("injected store stats: %+v", st)
	}
}

// TestRunGateContextCancel: a caller that gives up while queued releases
// its queue slot instead of leaking it.
func TestRunGateContextCancel(t *testing.T) {
	g := newRunGate(1, 4)
	release, ok := g.acquire(t.Context())
	if !ok {
		t.Fatal("first acquire failed")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, ok := g.acquire(ctx); ok {
		t.Fatal("acquire succeeded with canceled context and full slots")
	}
	if g.waiting.Load() != 0 {
		t.Fatalf("queue slot leaked: waiting %d", g.waiting.Load())
	}
	release()
	release2, ok := g.acquire(t.Context())
	if !ok {
		t.Fatal("slot not released")
	}
	release2()
}
