package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pbbf/internal/experiments"
	"pbbf/internal/rng"
	"pbbf/internal/scenario"
	"pbbf/internal/server"
	"pbbf/internal/sim"
	"pbbf/internal/store"
)

const (
	// poolSeeds is how many seeds the warm pool holds, from the golden
	// seed 1 up. Four seeds of the 27 point scenarios are ~1.9k keys, under
	// half the default memory tier, so no warm key is evicted.
	poolSeeds = 4
	// batch is the number of completed requests in one unit of the timed
	// phase (see unitQuantile); a unit's p99 has 20 requests beyond it.
	batch = 2048
	// setups is how many times the untraced run builds and warms a fresh
	// server; setup_s is their median.
	setups = 3
	// hitWarmup is how long the closed loop runs before it is measured:
	// after the warm phase's computing, the p99 of the first few seconds
	// of hits ran up to twice the steady value.
	hitWarmup = 5 * time.Second
)

// tmpRoot holds the disk tiers, inside the directory the benchmark runs in.
var tmpRoot = filepath.Join(".bench_build", "tmp")

// request is one POST /v1/run of the mix: one point scenario at quick
// scale under one seed.
type request struct {
	id   string
	seed uint64
}

// servePool lists every request of the warm pool. The pool is the same in
// every run, so every set-up does the same work; -seed picks the order the
// clients draw requests from it.
func servePool() []request {
	var ids []string
	for _, sc := range experiments.Registry().All() {
		if sc.PointBased() {
			ids = append(ids, sc.ID)
		}
	}
	var pool []request
	for s := uint64(1); s <= poolSeeds; s++ {
		for _, id := range ids {
			pool = append(pool, request{id, s})
		}
	}
	return pool
}

// timedStore wraps one store tier and times its calls.
type timedStore struct {
	store.Store
	gets, puts opTimer
}

type opTimer struct{ n, ns atomic.Int64 }

func (t *opTimer) add(d time.Duration) {
	t.n.Add(1)
	t.ns.Add(int64(d))
}

// snapshot returns the calls so far and their total nanoseconds.
func (t *opTimer) snapshot() (int64, int64) { return t.n.Load(), t.ns.Load() }

// meanSince returns the mean nanoseconds per call made after a snapshot.
func (t *opTimer) meanSince(n0, ns0 int64) float64 {
	n, ns := t.snapshot()
	if n == n0 {
		return 0
	}
	return float64(ns-ns0) / float64(n-n0)
}

func (t *timedStore) Get(key string) (scenario.Result, bool, error) {
	start := time.Now()
	res, ok, err := t.Store.Get(key)
	t.gets.add(time.Since(start))
	return res, ok, err
}

func (t *timedStore) Put(key string, res scenario.Result) error {
	start := time.Now()
	err := t.Store.Put(key, res)
	t.puts.add(time.Since(start))
	return err
}

// liveServer is one in-process server on a loopback listener.
type liveServer struct {
	srv       *server.Server
	dir       string
	base      string
	http      *http.Client
	cancel    context.CancelFunc
	done      chan error
	mem, disk *timedStore // the timing wrappers of a traced server
}

// startServer builds the server `pbbf serve -store DIR` builds: the default
// memory tier over a disk tier. A traced server gets the same composition
// with a timing wrapper on each tier.
func startServer(traced bool) (*liveServer, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "serve-hit-")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{dir: dir}
	opts := server.Options{Registry: experiments.Registry()}
	if traced {
		mem, err := store.NewMemory(server.DefaultCacheShards, server.DefaultCacheCapacity)
		if err != nil {
			return nil, err
		}
		disk, err := store.Open(dir)
		if err != nil {
			return nil, err
		}
		ls.mem, ls.disk = &timedStore{Store: mem}, &timedStore{Store: disk}
		opts.Results = store.Tiered(ls.mem, ls.disk)
	} else {
		opts.Disk = server.StoreOptions{Dir: dir}
	}
	if ls.srv, err = server.New(opts); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ls.srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	ls.base = "http://" + l.Addr().String()
	ls.http = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}}
	var ctx context.Context
	ctx, ls.cancel = context.WithCancel(context.Background())
	ls.done = make(chan error, 1)
	go func() { ls.done <- ls.srv.ServeListener(ctx, l, nil) }()
	return ls, nil
}

// stop shuts the server down, waits for it, and removes its disk tier.
func (ls *liveServer) stop() error {
	ls.http.CloseIdleConnections()
	ls.cancel()
	err := <-ls.done
	if cerr := ls.srv.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(ls.dir); err == nil {
		err = rerr
	}
	return err
}

// stream is what the client saw of one POST /v1/run.
type stream struct {
	status      int
	points      []byte // the point lines, newlines included, when kept
	matched     int    // bytes of point lines that equalled the expected ones
	mismatch    bool   // a point line differed from the expected ones
	lines       int
	bytes       int
	done        bool
	ttfb, total time.Duration // send to header line, send to done line
}

// addPoint keeps a point line when nothing is expected, and otherwise
// compares it with the expected lines where the previous one ended.
func (st *stream) addPoint(line, want []byte) {
	switch {
	case want == nil:
		st.points = append(st.points, line...)
	case !st.mismatch && bytes.HasPrefix(want[st.matched:], line):
		st.matched += len(line)
	default:
		st.mismatch = true
	}
}

// run sends one request and reads its stream through br. With want nil
// the point lines are kept in st.points; otherwise each is compared with
// want as it arrives, so that the client allocates little per request and
// its garbage does not crowd the server's.
func (ls *liveServer) run(req request, br *bufio.Reader, want []byte) (stream, error) {
	var st stream
	body := fmt.Sprintf(`{"experiment":%q,"scale":"quick","seed":%d}`, req.id, req.seed)
	start := time.Now()
	resp, err := ls.http.Post(ls.base+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	st.status = resp.StatusCode
	if st.status != http.StatusOK {
		_, err := io.Copy(io.Discard, resp.Body)
		return st, err
	}
	br.Reset(resp.Body)
	for {
		line, err := br.ReadSlice('\n')
		if len(line) > 0 {
			st.lines++
			st.bytes += len(line)
			switch {
			case bytes.HasPrefix(line, []byte(`{"type":"run"`)):
				st.ttfb = time.Since(start)
			case bytes.HasPrefix(line, []byte(`{"type":"point"`)):
				st.addPoint(line, want)
			case bytes.HasPrefix(line, []byte(`{"type":"done"`)):
				st.total = time.Since(start)
				st.done = true
			}
		}
		if err == io.EOF {
			return st, nil
		}
		if err != nil {
			return st, err
		}
	}
}

// each sends every request of reqs once, from clients concurrent clients.
func (ls *liveServer) each(reqs []request, clients int) ([]stream, []error) {
	out := make([]stream, len(reqs))
	errs := make([]error, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			br := bufio.NewReaderSize(nil, 64<<10)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				out[i], errs[i] = ls.run(reqs[i], br, nil)
			}
		}()
	}
	wg.Wait()
	return out, errs
}

// warm computes every request of the pool through the server, then sends
// the pool again and returns the second pass's point lines per request:
// the bytes every later response must repeat.
func (b *bench) warm(ls *liveServer, pool []request) (map[request][]byte, error) {
	first, errs := ls.each(pool, b.workers)
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	second, errs := ls.each(pool, b.workers)
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	ref := make(map[request][]byte, len(pool))
	for i, req := range pool {
		ok := first[i].status == http.StatusOK && first[i].done && second[i].status == http.StatusOK && second[i].done
		recomputed := bytes.ReplaceAll(first[i].points, []byte(`"cached":false}`), []byte(`"cached":true}`))
		b.check(ok && bytes.Equal(recomputed, second[i].points),
			"warm %s seed %d: computed and cached streams differ (status %d/%d)", req.id, req.seed, first[i].status, second[i].status)
		ref[req] = second[i].points
	}
	return ref, nil
}

// pointLine mirrors the server's NDJSON point line.
type pointLine struct {
	Type     string `json:"type"`
	Scenario string `json:"scenario"`
	scenario.PointOutput
	Cached bool `json:"cached"`
}

func decodePoints(lines []byte) ([]pointLine, error) {
	var out []pointLine
	dec := json.NewDecoder(bytes.NewReader(lines))
	for dec.More() {
		var pl pointLine
		if err := dec.Decode(&pl); err != nil {
			return nil, err
		}
		out = append(out, pl)
	}
	return out, nil
}

// checkGoldenServed requires the served seed-1 results to match the
// committed quick-scale golden stream.
func (b *bench) checkGoldenServed(g golden, ref map[request][]byte) error {
	for req, lines := range ref {
		if req.seed != 1 {
			continue
		}
		pls, err := decodePoints(lines)
		if err != nil {
			return err
		}
		sc, err := experiments.Registry().ByID(req.id)
		if err != nil {
			return err
		}
		out := scenario.Output{Scenario: sc}
		for _, pl := range pls {
			out.Points = append(out.Points, pl.PointOutput)
		}
		d := diffGolden(g, out)
		b.check(d == "", "golden (served): %s", d)
	}
	return nil
}

// setUp starts a server and warms it, returning the reference streams, the
// time it took and the simulated events the warm phase fired. The served
// seed-1 results must match the golden stream.
func (b *bench) setUp(pool []request, traced bool) (*liveServer, map[request][]byte, time.Duration, uint64, error) {
	fired := sim.TotalFired()
	start := time.Now()
	ls, err := startServer(traced)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	ref, err := b.warm(ls, pool)
	elapsed := time.Since(start)
	events := sim.TotalFired() - fired
	if err == nil {
		var g golden
		if g, err = loadGolden(goldenPath); err == nil {
			err = b.checkGoldenServed(g, ref)
		}
	}
	if err != nil {
		ls.stop()
		return nil, nil, 0, 0, err
	}
	return ls, ref, elapsed, events, nil
}

// hitPhase is what one timed closed-loop phase measured.
type hitPhase struct {
	elapsed  time.Duration
	done     []completion // successful requests, in completion order
	lines    int
	bytes    int
	delta    map[string]float64 // /metrics change over the phase
	rss      []float64          // peak resident set of each batch, MiB
	rt0, rt1 runtimeSample
}

// completion is one successful request: when its done line arrived, and
// its latencies in seconds.
type completion struct {
	at                    time.Time
	latency, ttfb, stream float64 // send to done line, send to header, header to done
}

// units splits the completions into consecutive batches of batch requests
// and returns each batch's duration and latencies.
func (h *hitPhase) units() (walls []float64, latencies [][]float64) {
	for k := 0; (k+1)*batch < len(h.done); k++ {
		walls = append(walls, h.done[(k+1)*batch].at.Sub(h.done[k*batch].at).Seconds())
		var l []float64
		for _, c := range h.done[k*batch+1 : (k+1)*batch+1] {
			l = append(l, c.latency)
		}
		latencies = append(latencies, l)
	}
	return walls, latencies
}

// streamProblem describes what is wrong with a timed-phase response, or
// returns "" for a complete stream whose point lines byte-equal want.
func streamProblem(st stream, err error, want []byte) string {
	switch {
	case err != nil:
		return err.Error()
	case st.status != http.StatusOK || !st.done:
		return fmt.Sprintf("status %d, done line seen: %v", st.status, st.done)
	case st.mismatch || st.matched != len(want):
		return "point lines differ from the warm phase's"
	}
	return ""
}

// timedHits runs a closed loop of b.workers clients for hitWarmup plus dur
// and measures the last dur. Each client draws its requests from the pool
// with its own generator seeded from -seed, and waits for a stream's done
// line before sending the next. Every response is checked.
func (b *bench) timedHits(ls *liveServer, pool []request, ref map[request][]byte, dur time.Duration) (*hitPhase, error) {
	before, err := ls.scrape()
	if err != nil {
		return nil, err
	}
	h := &hitPhase{}
	fired := sim.TotalFired()
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		attempts int
		problems []string
	)
	start := time.Now().Add(hitWarmup)
	for c := 0; c < b.workers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rng.New(b.seed ^ uint64(c+1)*0x9e3779b97f4a7c15)
			br := bufio.NewReaderSize(nil, 64<<10)
			for time.Since(start) < dur {
				req := pool[r.Intn(len(pool))]
				st, err := ls.run(req, br, ref[req])
				mu.Lock()
				attempts++
				if p := streamProblem(st, err, ref[req]); p != "" {
					problems = append(problems, fmt.Sprintf("%s seed %d: %s", req.id, req.seed, p))
				} else if now := time.Now(); now.After(start) {
					h.done = append(h.done, completion{
						at:      now,
						latency: st.total.Seconds(),
						ttfb:    st.ttfb.Seconds(),
						stream:  (st.total - st.ttfb).Seconds(),
					})
					h.lines += st.lines
					h.bytes += st.bytes
					// A batch ends at every batch-th completion (see units).
					if i := len(h.done) - 1; i%batch == 0 {
						if i > 0 {
							h.rss = append(h.rss, peakRSSMB())
						}
						resetPeakRSS()
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	time.Sleep(time.Until(start))
	h.rt0 = readRuntime()
	wg.Wait()
	h.elapsed = time.Since(start)
	h.rt1 = readRuntime()
	events := sim.TotalFired() - fired

	b.attempted += attempts
	for _, p := range problems {
		b.fail("request %s", p)
	}
	after, err := ls.scrape()
	if err != nil {
		return nil, err
	}
	h.delta = make(map[string]float64)
	for k, v := range after {
		h.delta[k] = v - before[k]
	}
	// The timed phase must stay on the hit path: every lookup served by
	// the memory tier, nothing computed, nothing simulated.
	for _, k := range []string{
		`pbbf_store_misses_total{tier="memory"}`,
		`pbbf_store_hits_total{tier="disk"}`,
		`pbbf_store_misses_total{tier="disk"}`,
		`pbbf_flight_computes_total`,
	} {
		b.check(h.delta[k] == 0, "timed phase left the hit path: %s rose by %v", k, h.delta[k])
	}
	b.check(events == 0, "timed phase fired %d simulated events", events)
	b.logf("serve-hit: %d requests in %v, %d failed", attempts, h.elapsed.Round(time.Millisecond), len(problems))
	return h, nil
}

// scrape reads the server's /metrics exposition into series → value.
func (ls *liveServer) scrape() (map[string]float64, error) {
	resp, err := ls.http.Get(ls.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("GET /metrics: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

func runServeHit(b *bench) error {
	pool := servePool()
	if !b.traced {
		ls, h, err := b.serveUntraced(pool)
		if err != nil {
			return err
		}
		b.recordHitEndToEnd(h)
		return ls.stop()
	}

	// Traced: an untraced server for the baseline, then a server with
	// timing wrappers on its store tiers, each measured for half the time.
	ls, ref, _, events, err := b.setUp(pool, false)
	if err != nil {
		return err
	}
	base, err := b.timedHits(ls, pool, ref, b.seconds/2)
	if err != nil {
		ls.stop()
		return err
	}
	if err := ls.stop(); err != nil {
		return err
	}

	tls, tref, _, tevents, err := b.setUp(pool, true)
	if err != nil {
		return err
	}
	b.check(tevents == events, "warm phases fired %d and %d simulated events", events, tevents)
	b.set("sim.events", float64(events), 2)
	err = b.tracedHits(tls, pool, tref, base)
	if serr := tls.stop(); err == nil {
		err = serr
	}
	return err
}

// tracedHits runs the timed phase on a warmed server with timing wrappers
// and records the serving layers' metrics.
func (b *bench) tracedHits(tls *liveServer, pool []request, tref map[request][]byte, base *hitPhase) error {
	memPuts, _ := tls.mem.puts.snapshot()
	diskPuts, _ := tls.disk.puts.snapshot()
	b.set("store.memory_put_ns", tls.mem.puts.meanSince(0, 0), int(memPuts))
	b.set("store.disk_put_us", tls.disk.puts.meanSince(0, 0)/1e3, int(diskPuts))
	g0n, g0ns := tls.mem.gets.snapshot()
	h, err := b.timedHits(tls, pool, tref, b.seconds/2)
	if err != nil {
		return err
	}
	gets, _ := tls.mem.gets.snapshot()
	b.set("store.memory_get_ns", tls.mem.gets.meanSince(g0n, g0ns), int(gets-g0n))

	baseWalls, _ := base.units()
	walls, _ := h.units()
	if bw, tw := median(baseWalls), median(walls); bw > 0 && tw > 0 {
		b.set("bench.trace_overhead_frac", tw/bw-1, len(walls))
	}
	n := len(h.done)
	var ttfb, streamT []float64
	for _, c := range h.done {
		ttfb = append(ttfb, c.ttfb)
		streamT = append(streamT, c.stream)
	}
	b.set("server.ttfb_ms.p50", 1e3*quantile(ttfb, 0.5), n)
	b.set("server.stream_ms.p50", 1e3*quantile(streamT, 0.5), n)
	if n > 0 {
		b.set("server.lines_per_req", float64(h.lines)/float64(n), n)
		b.set("server.bytes_per_req", float64(h.bytes)/float64(n), n)
	}
	d := h.delta
	for _, fam := range []string{"hits", "misses", "puts", "errors"} {
		for _, tier := range []string{"memory", "disk"} {
			b.set("scrape.store_"+fam+"."+tier, d[fmt.Sprintf("pbbf_store_%s_total{tier=%q}", fam, tier)], 1)
		}
	}
	b.set("store.hits", d[`pbbf_store_hits_total{tier="memory"}`]+d[`pbbf_store_hits_total{tier="disk"}`], 1)
	b.set("store.misses", d[`pbbf_store_misses_total{tier="memory"}`]+d[`pbbf_store_misses_total{tier="disk"}`], 1)
	b.set("flight.computes", d["pbbf_flight_computes_total"], 1)
	b.set("scrape.runs_shed", d["pbbf_runs_shed_total"], 1)
	b.set("scrape.rate_limited", d["pbbf_rate_limited_total"], 1)
	b.setRuntime(h.rt0, h.rt1, max(1, len(walls)))

	return b.measureServeLayers(tls, pool, tref)
}

// serveUntraced sets a server up several times, keeping the last, and runs
// the timed phase on it.
func (b *bench) serveUntraced(pool []request) (*liveServer, *hitPhase, error) {
	var (
		ls       *liveServer
		ref      map[request][]byte
		times    []float64
		events   []uint64
		firstRef map[request][]byte
	)
	for i := 0; i < setups; i++ {
		if ls != nil {
			if err := ls.stop(); err != nil {
				return nil, nil, err
			}
		}
		var (
			d   time.Duration
			ev  uint64
			err error
		)
		ls, ref, d, ev, err = b.setUp(pool, false)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, d.Seconds())
		events = append(events, ev)
		if firstRef == nil {
			firstRef = ref
			continue
		}
		b.check(maps.EqualFunc(ref, firstRef, bytes.Equal), "set-up %d served different results than set-up 0", i)
		b.check(ev == events[0], "set-up %d fired %d simulated events, set-up 0 fired %d", i, ev, events[0])
	}
	b.logf("serve-hit: set-up seconds: %.3f", times)
	b.set("setup_s", median(times), len(times))
	h, err := b.timedHits(ls, pool, ref, b.seconds)
	if err != nil {
		ls.stop()
		return nil, nil, err
	}
	return ls, h, nil
}

func (b *bench) recordHitEndToEnd(h *hitPhase) {
	walls, latencies := h.units()
	n := len(h.done)
	b.logf("serve-hit: seconds per %d requests, by batch: %.3f", batch, walls)
	if wall := median(walls); wall > 0 {
		b.set("wall_s", wall, len(walls))
		b.set("req_per_s", batch/wall, n)
	}
	b.set("p50_ms", 1e3*unitQuantile(latencies, 0.50), n)
	b.set("p99_ms", 1e3*unitQuantile(latencies, 0.99), n)
	b.set("peak_rss_mb", median(h.rss), len(h.rss))
}

// measureServeLayers times the hit path's pieces on the request mix's own
// points: key build, line encoding and a disk-tier hit.
func (b *bench) measureServeLayers(ls *liveServer, pool []request, ref map[request][]byte) error {
	type keyed struct {
		id string
		s  scenario.Scale
		pt scenario.Point
	}
	var (
		keys  []keyed
		lines []pointLine
	)
	for _, req := range pool {
		pls, err := decodePoints(ref[req])
		if err != nil {
			return err
		}
		s := scenario.Quick()
		s.Seed = req.seed
		for _, pl := range pls {
			keys = append(keys, keyed{req.id, s, pl.Point})
			lines = append(lines, pl)
		}
	}
	if len(keys) == 0 {
		return fmt.Errorf("serve-hit: empty request mix")
	}

	i := 0
	var keySink int
	d := timePer(5, 20_000, func() {
		k := keys[i%len(keys)]
		keySink += len(scenario.PointKey(k.id, k.s, k.pt))
		i++
	})
	b.set("scenario.pointkey_ns", d, 5)

	// Re-encoding a served line must give the served bytes.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, req := range pool {
		buf.Reset()
		pls, _ := decodePoints(ref[req])
		for _, pl := range pls {
			if err := enc.Encode(pl); err != nil {
				return err
			}
		}
		b.check(bytes.Equal(buf.Bytes(), ref[req]), "%s seed %d: re-encoded point lines differ from the served ones", req.id, req.seed)
	}
	i = 0
	d = timePer(5, 20_000, func() {
		buf.Reset()
		enc.Encode(lines[i%len(lines)]) //nolint:errcheck // encoded once above without error
		i++
	})
	b.set("server.encode_ns", d, 5)

	diskKeys := make([]string, len(keys))
	for j, k := range keys {
		diskKeys[j] = scenario.PointKey(k.id, k.s, k.pt)
	}
	missing := 0
	i = 0
	d = timePer(5, 200, func() {
		if _, ok, err := ls.disk.Store.Get(diskKeys[i%len(diskKeys)]); !ok || err != nil {
			missing++
		}
		i++
	})
	b.check(missing == 0, "%d warm keys missing from the disk tier", missing)
	b.set("store.disk_get_us", d/1e3, 5)
	return nil
}
