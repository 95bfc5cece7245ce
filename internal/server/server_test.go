package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pbbf/internal/dist"
	"pbbf/internal/scenario"
	"pbbf/internal/stats"
)

// testRegistry returns a registry with one fast point-based scenario and
// one static table, so server tests never pay simulation cost.
func testRegistry(t *testing.T) *scenario.Registry {
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
			return scenario.Result{Y: pt.X * 10, Delivery: 1}, nil
		},
	})
	reg.MustRegister(scenario.Scenario{
		ID: "statictbl", Title: "static table", Artifact: "Table 9",
		Summary: "server test table",
		TableFn: func(scenario.Scale) (*stats.Table, error) {
			tbl := &stats.Table{Title: "static", XLabel: "x", YLabel: "y"}
			tbl.AddSeries("s").Append(1, 2)
			return tbl, nil
		},
	})
	return reg
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Options{Registry: testRegistry(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func getJSON(t *testing.T, url string, into any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp
}

func TestScenariosList(t *testing.T) {
	_, ts := newTestServer(t)
	var got scenariosResponse
	resp := getJSON(t, ts.URL+"/v1/scenarios", &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(got.Scenarios) != 2 || got.Scenarios[0].ID != "fast" || got.Scenarios[1].ID != "statictbl" {
		t.Fatalf("scenarios: %+v", got.Scenarios)
	}
	if len(got.Scales) == 0 || got.Scales[0] != "quick" {
		t.Fatalf("scales: %v", got.Scales)
	}
}

func TestScenarioByID(t *testing.T) {
	_, ts := newTestServer(t)
	var sc scenario.Scenario
	resp := getJSON(t, ts.URL+"/v1/scenarios/fast", &sc)
	if resp.StatusCode != http.StatusOK || sc.ID != "fast" || sc.Summary == "" {
		t.Fatalf("status %d scenario %+v", resp.StatusCode, sc)
	}
}

func TestErrorStatusCodes(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		method, path, body string
		want               int
		jsonBody           bool // API errors carry a JSON {"error": ...} body
	}{
		{"GET", "/v1/scenarios/nope", "", http.StatusNotFound, true},
		{"GET", "/nope", "", http.StatusNotFound, false},
		{"POST", "/v1/scenarios", "", http.StatusMethodNotAllowed, false},
		{"GET", "/v1/run", "", http.StatusMethodNotAllowed, false},
		{"POST", "/v1/run", "{not json", http.StatusBadRequest, true},
		{"POST", "/v1/run", `{"unknown_field":1}`, http.StatusBadRequest, true},
		{"POST", "/v1/run", `{"scale":"quick"}`, http.StatusBadRequest, true},                    // missing experiment
		{"POST", "/v1/run", `{"experiment":"fast","scale":"huge"}`, http.StatusBadRequest, true}, // unknown scale
		{"POST", "/v1/run", `{"experiment":"nope","scale":"quick"}`, http.StatusNotFound, true},  // unknown scenario
		{"POST", "/v1/run", `{"experiment":"fast","scale":"quick","protocol":"olaa"}`, http.StatusBadRequest, true},
		{"POST", "/v1/run", `{"experiment":"fast","scale":"quick","energy_j":-1}`, http.StatusBadRequest, true},
		{"POST", "/v1/run", `{"experiment":"fast","scale":"quick","energy_j":1e999}`, http.StatusBadRequest, true},
		{"POST", "/v1/run", `{"experiment":"fast","scale":"quick","harvest_w":0.01}`, http.StatusBadRequest, true},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != c.want {
			t.Fatalf("%s %s: status %d, want %d", c.method, c.path, resp.StatusCode, c.want)
		}
		if c.jsonBody {
			var e errorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
				t.Fatalf("%s %s: error body not JSON: %v", c.method, c.path, err)
			}
		}
		resp.Body.Close()
	}
}

// postRun issues a run request and parses the NDJSON stream into raw lines.
func postRun(t *testing.T, ts *httptest.Server, body string) []map[string]any {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var lines []map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

func TestRunStreamsDeterministicOrder(t *testing.T) {
	_, ts := newTestServer(t)
	lines := postRun(t, ts, `{"experiment":"fast","scale":"quick","workers":4}`)
	if len(lines) != 8 { // run header + 6 points + done
		t.Fatalf("got %d lines: %v", len(lines), lines)
	}
	if lines[0]["type"] != "run" || lines[0]["jobs"] != float64(6) || lines[0]["scenarios"] != float64(1) {
		t.Fatalf("header: %v", lines[0])
	}
	last := lines[len(lines)-1]
	if last["type"] != "done" || last["jobs"] != float64(6) {
		t.Fatalf("done line: %v", last)
	}
	// Points must arrive in enumeration order (series a x=0,1,2 then b),
	// whatever order the 4 workers finished them in.
	wantSeries := []string{"a", "a", "a", "b", "b", "b"}
	for i, line := range lines[1:7] {
		if line["type"] != "point" || line["scenario"] != "fast" {
			t.Fatalf("line %d: %v", i+1, line)
		}
		if line["series"] != wantSeries[i] || line["x"] != float64(i%3) {
			t.Fatalf("line %d out of order: %v", i+1, line)
		}
		res := line["result"].(map[string]any)
		if res["y"] != float64(i%3*10) {
			t.Fatalf("line %d result: %v", i+1, line)
		}
	}
}

func TestRunStreamsTableScenario(t *testing.T) {
	_, ts := newTestServer(t)
	lines := postRun(t, ts, `{"experiment":"statictbl","scale":"quick"}`)
	if len(lines) != 3 {
		t.Fatalf("got %d lines: %v", len(lines), lines)
	}
	if lines[1]["type"] != "table" || lines[1]["scenario"] != "statictbl" {
		t.Fatalf("table line: %v", lines[1])
	}
	tbl := lines[1]["table"].(map[string]any)
	if tbl["title"] != "static" {
		t.Fatalf("table content: %v", tbl)
	}
}

func TestRunAllSelector(t *testing.T) {
	_, ts := newTestServer(t)
	lines := postRun(t, ts, `{"experiment":"all","scale":"quick"}`)
	if lines[0]["scenarios"] != float64(2) || lines[0]["jobs"] != float64(7) {
		t.Fatalf("header: %v", lines[0])
	}
	if lines[len(lines)-1]["type"] != "done" {
		t.Fatalf("missing done line: %v", lines[len(lines)-1])
	}
}

// TestRepeatRunHitsCache is the acceptance check: a repeated identical run
// is served from the cache, visible in both the per-line cached flags and
// the /v1/stats counters.
func TestRepeatRunHitsCache(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"experiment":"fast","scale":"quick"}`

	first := postRun(t, ts, body)
	for _, line := range first[1:7] {
		if line["cached"] != false {
			t.Fatalf("first run served from an empty cache: %v", line)
		}
	}
	var st statsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Cache.Misses != 6 || st.Cache.Hits != 0 || st.Cache.Entries != 6 {
		t.Fatalf("stats after first run: %+v", st.Cache)
	}

	second := postRun(t, ts, body)
	for _, line := range second[1:7] {
		if line["cached"] != true {
			t.Fatalf("repeated run recomputed: %v", line)
		}
	}
	done := second[len(second)-1]
	if done["cached_points"] != float64(6) {
		t.Fatalf("done line: %v", done)
	}
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Cache.Hits != 6 || st.Cache.Misses != 6 {
		t.Fatalf("stats after repeat: %+v", st.Cache)
	}
	if st.Runs != 2 || st.PointsServed != 12 {
		t.Fatalf("run counters: %+v", st)
	}

	// A different seed is a different computation — no cache hits.
	third := postRun(t, ts, `{"experiment":"fast","scale":"quick","seed":2}`)
	for _, line := range third[1:7] {
		if line["cached"] != false {
			t.Fatalf("different seed served stale result: %v", line)
		}
	}
}

func TestRunStreamErrorLine(t *testing.T) {
	reg := scenario.NewRegistry()
	reg.MustRegister(scenario.Scenario{
		ID: "failing", Title: "failing", Artifact: "extension", Summary: "fails",
		Params: []scenario.ParamDoc{{Name: "x", Desc: "x"}},
		XLabel: "x", YLabel: "y",
		Points: func(scenario.Scale) ([]scenario.Point, error) {
			return []scenario.Point{{Series: "a", X: 1, Params: map[string]float64{"x": 1}}}, nil
		},
		RunPoint: func(scenario.Scale, scenario.Point) (scenario.Result, error) {
			return scenario.Result{}, fmt.Errorf("simulated failure")
		},
	})
	srv, err := New(Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	lines := postRun(t, ts, `{"experiment":"failing","scale":"quick"}`)
	last := lines[len(lines)-1]
	if last["type"] != "error" {
		t.Fatalf("stream did not end with an error line: %v", lines)
	}
	msg := last["error"].(string)
	if !strings.Contains(msg, "failing: point series") || !strings.Contains(msg, "simulated failure") {
		t.Fatalf("error not attributed: %q", msg)
	}
}

func TestStatsEndpointShape(t *testing.T) {
	_, ts := newTestServer(t)
	var st statsResponse
	resp := getJSON(t, ts.URL+"/v1/stats", &st)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if st.Cache.Shards != DefaultCacheShards || st.Cache.Capacity != DefaultCacheCapacity {
		t.Fatalf("cache config not surfaced: %+v", st.Cache)
	}
	if st.UptimeS < 0 {
		t.Fatalf("uptime %v", st.UptimeS)
	}
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("nil registry accepted")
	}
}

func TestGracefulShutdown(t *testing.T) {
	srv, err := New(Options{Registry: testRegistry(t)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var (
		logMu sync.Mutex
		logs  bytes.Buffer
	)
	logw := writerFunc(func(p []byte) (int, error) {
		logMu.Lock()
		defer logMu.Unlock()
		return logs.Write(p)
	})
	served := make(chan error, 1)
	go func() { served <- srv.ListenAndServe(ctx, "127.0.0.1:0", logw) }()

	// Wait for the listen log line to learn the bound address.
	var addr string
	for i := 0; i < 200 && addr == ""; i++ {
		time.Sleep(10 * time.Millisecond)
		logMu.Lock()
		if s := logs.String(); strings.Contains(s, "http://") {
			addr = "http://" + strings.TrimSpace(strings.SplitAfter(s, "http://")[1])
		}
		logMu.Unlock()
	}
	if addr == "" {
		t.Fatalf("server never logged its address: %q", logs.String())
	}
	resp, err := http.Get(addr + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("graceful shutdown timed out")
	}
	if _, err := http.Get(addr + "/v1/stats"); err == nil {
		t.Fatal("server still serving after shutdown")
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	var h healthResponse
	resp := getJSON(t, ts.URL+"/healthz", &h)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if h.Status != "ok" || h.UptimeS < 0 || h.Scenarios != 2 {
		t.Fatalf("health: %+v", h)
	}
}

// TestWorkEndpointsWithoutCoordinator: plain `pbbf serve` has no
// distributed sweep; every work endpoint must answer 503 with a JSON
// error, so a misdirected worker fails with a message instead of a hang.
func TestWorkEndpointsWithoutCoordinator(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct{ method, path string }{
		{"POST", "/v1/workers"},
		{"GET", "/v1/workers"},
		{"POST", "/v1/workers/w1/heartbeat"},
		{"POST", "/v1/work/lease"},
		{"POST", "/v1/work/result"},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var e errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
			t.Fatalf("%s %s: error body not JSON: %v", c.method, c.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s %s: status %d, want 503", c.method, c.path, resp.StatusCode)
		}
	}
}

// TestWorkerLifecycleOverHTTP drives the coordination endpoints the way a
// worker does: register, poll an empty queue, lease a point submitted
// through the coordinator, report its result, observe it in /v1/workers,
// and drain after close.
func TestWorkerLifecycleOverHTTP(t *testing.T) {
	reg := testRegistry(t)
	coord := dist.NewCoordinator(dist.Config{LeaseTTL: 5 * time.Second})
	srv, err := New(Options{Registry: reg, Coordinator: coord})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	postJSON := func(path, body string, into any) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if into != nil {
			if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
				t.Fatalf("POST %s: %v", path, err)
			}
		}
		return resp
	}

	var regResp dist.RegisterResponse
	postJSON("/v1/workers", `{"name":"httpw"}`, &regResp)
	if regResp.WorkerID == "" || regResp.LeaseTTLMS != 5000 {
		t.Fatalf("register: %+v", regResp)
	}

	// Empty queue: the lease answers with a retry delay, not points.
	var idle dist.LeaseResponse
	postJSON("/v1/work/lease", `{"worker_id":"`+regResp.WorkerID+`"}`, &idle)
	if idle.RetryMS <= 0 || len(idle.Points) != 0 {
		t.Fatalf("idle lease: %+v", idle)
	}

	// Submit one point through the coordinator and serve it over HTTP.
	sc, err := reg.ByID("fast")
	if err != nil {
		t.Fatal(err)
	}
	scale := scenario.Quick()
	pt := scenario.Point{Series: "a", X: 1, Params: map[string]float64{"x": 1}}
	spec := scenario.NewPointSpec(sc, scale, pt)
	doErr := make(chan error, 1)
	go func() {
		res, err := coord.Do(context.Background(), spec)
		if err == nil && res.Y != 42 {
			err = fmt.Errorf("result %+v", res)
		}
		doErr <- err
	}()
	var grant dist.LeaseResponse
	for i := 0; i < 200 && len(grant.Points) == 0; i++ {
		time.Sleep(5 * time.Millisecond)
		postJSON("/v1/work/lease", `{"worker_id":"`+regResp.WorkerID+`"}`, &grant)
	}
	if len(grant.Points) != 1 || grant.Points[0].Key != spec.Key {
		t.Fatalf("grant: %+v", grant)
	}

	// Heartbeat while "computing".
	resp := postJSON("/v1/workers/"+regResp.WorkerID+"/heartbeat", "{}", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("heartbeat status %d", resp.StatusCode)
	}
	if resp := postJSON("/v1/workers/w999/heartbeat", "{}", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown worker heartbeat status %d", resp.StatusCode)
	}

	var ack dist.ResultResponse
	body, err := json.Marshal(dist.ResultRequest{
		WorkerID: regResp.WorkerID, LeaseID: grant.LeaseID,
		Results: []dist.PointResult{{Key: spec.Key, Result: scenario.Result{Y: 42}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	postJSON("/v1/work/result", string(body), &ack)
	if ack.Accepted != 1 || ack.Stale != 0 {
		t.Fatalf("ack: %+v", ack)
	}
	if err := <-doErr; err != nil {
		t.Fatal(err)
	}

	var workers dist.WorkersResponse
	getJSON(t, ts.URL+"/v1/workers", &workers)
	if len(workers.Workers) != 1 || workers.Workers[0].Name != "httpw" || workers.Workers[0].Completed != 1 {
		t.Fatalf("workers: %+v", workers)
	}
	if workers.Queue.Done != 1 || workers.Queue.Pending != 0 {
		t.Fatalf("queue: %+v", workers.Queue)
	}

	coord.Close()
	var done dist.LeaseResponse
	postJSON("/v1/work/lease", `{"worker_id":"`+regResp.WorkerID+`"}`, &done)
	if !done.Done {
		t.Fatalf("post-close lease: %+v", done)
	}

	// Malformed bodies are 400s, not panics.
	if resp := postJSON("/v1/work/lease", "{not json", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad lease body status %d", resp.StatusCode)
	}
}

// TestAccessLog: with AccessLog configured every request writes one JSON
// line carrying method, path, status, and timing; without it, nothing is
// logged (the default).
func TestAccessLog(t *testing.T) {
	var (
		mu  sync.Mutex
		buf bytes.Buffer
	)
	srv, err := New(Options{
		Registry: testRegistry(t),
		AccessLog: writerFunc(func(p []byte) (int, error) {
			mu.Lock()
			defer mu.Unlock()
			return buf.Write(p)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/v1/scenarios/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// The NDJSON streaming path must keep flushing through the recorder.
	lines := postRun(t, ts, `{"experiment":"fast","scale":"quick"}`)
	if lines[len(lines)-1]["type"] != "done" {
		t.Fatalf("streamed run broke under access logging: %v", lines)
	}

	mu.Lock()
	logged := buf.String()
	mu.Unlock()
	records := strings.Split(strings.TrimSpace(logged), "\n")
	if len(records) != 3 {
		t.Fatalf("got %d access-log lines:\n%s", len(records), logged)
	}
	type rec struct {
		Method     string  `json:"method"`
		Path       string  `json:"path"`
		Status     int     `json:"status"`
		Bytes      int64   `json:"bytes"`
		DurationMS float64 `json:"duration_ms"`
		Remote     string  `json:"remote"`
	}
	var r rec
	if err := json.Unmarshal([]byte(records[0]), &r); err != nil {
		t.Fatalf("access line not JSON: %v\n%s", err, records[0])
	}
	if r.Method != "GET" || r.Path != "/healthz" || r.Status != 200 || r.Bytes <= 0 || r.Remote == "" {
		t.Fatalf("healthz record: %+v", r)
	}
	if err := json.Unmarshal([]byte(records[1]), &r); err != nil {
		t.Fatal(err)
	}
	if r.Status != 404 || r.Path != "/v1/scenarios/nope" {
		t.Fatalf("404 record: %+v", r)
	}
	if err := json.Unmarshal([]byte(records[2]), &r); err != nil {
		t.Fatal(err)
	}
	if r.Method != "POST" || r.Path != "/v1/run" || r.Status != 200 {
		t.Fatalf("run record: %+v", r)
	}
}
