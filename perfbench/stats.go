package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by the nearest-rank rule:
// the smallest sample with at least q·n samples at or below it. It returns
// 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999999) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// unitQuantile returns the median over units of each unit's q-quantile.
// A run reports a time measured once per unit of work as the median over
// its units: a burst of interference from other tenants of the host
// slows the units it covers, which a median over a long run leaves out,
// while a change to the program moves every unit.
func unitQuantile(units [][]float64, q float64) float64 {
	per := make([]float64, 0, len(units))
	for _, u := range units {
		if len(u) > 0 {
			per = append(per, quantile(u, q))
		}
	}
	return median(per)
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// peakRSSMB is the process's peak resident set, in MiB, since the last
// resetPeakRSS or, without one, since it started.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			f := strings.Fields(line) // "VmHWM:", kibibytes, "kB"
			if len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// resetPeakRSS starts a new peak-RSS window: Linux sets the process's
// high-water mark back to its current resident set when "5" is written to
// clear_refs. Where that fails, peakRSSMB keeps covering the whole process.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //nolint:errcheck // see above
}

// runtimeSample is a snapshot of the Go runtime's cumulative allocation,
// GC-cycle and CPU counters.
type runtimeSample struct {
	allocBytes, gcCycles float64
	gcCPU, totalCPU      float64
}

var runtimeKeys = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		ss[i].Name = k
	}
	metrics.Read(ss)
	v := func(i int) float64 {
		switch ss[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(ss[i].Value.Uint64())
		case metrics.KindFloat64:
			return ss[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: v(0), gcCycles: v(1), gcCPU: v(2), totalCPU: v(3)}
}

// setRuntime records the runtime counters' change from a to b, spread over
// units units of work (sweeps, or request batches).
func (b *bench) setRuntime(a, z runtimeSample, units int) {
	if units < 1 {
		return
	}
	u := float64(units)
	b.set("runtime.alloc_mb", (z.allocBytes-a.allocBytes)/u/(1<<20), units)
	b.set("runtime.gc_cycles", (z.gcCycles-a.gcCycles)/u, units)
	if cpu := z.totalCPU - a.totalCPU; cpu > 0 {
		b.set("runtime.gc_cpu_frac", (z.gcCPU-a.gcCPU)/cpu, units)
	}
}

// calibrate times a fixed integer loop and returns ns per iteration (the
// median of five passes). A slow reading flags a busy or throttled machine
// rather than a slower program.
func calibrate() float64 {
	const iters = 4_000_000
	var per []float64
	x := uint64(88172645463325252)
	for pass := 0; pass < 5; pass++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/iters)
	}
	calibSink = x
	return median(per)
}

var calibSink uint64

// spin keeps n CPUs busy for d. On a virtual machine whose CPUs have been
// idle, the first second of parallel work runs at about half speed; the
// spin takes that cost so that the first timed operation does not.
func spin(n int, d time.Duration) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(i + 1)
			for start := time.Now(); time.Since(start) < d; {
				for j := 0; j < 100_000; j++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
				}
			}
			spinSink.Add(x)
		}()
	}
	wg.Wait()
}

var spinSink atomic.Uint64

// machineRecord describes where a result was measured: CPUs, CPU model,
// toolchain, and which source it was built from.
func machineRecord() map[string]any {
	rec := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     "unknown",
		"source":     sourceDigest("."),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				rec["commit"] = s.Value
			}
		}
	}
	return rec
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under root (build
// output excluded), so a result names the code it measured even where the
// checkout carries no version-control metadata.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// probeFlag starts the binary as a set-up probe: a fresh process that does
// a workload's set-up and exits.
const probeFlag = "-setup-probe"

// probeSetup times probes fresh processes of this binary, each of which
// runs the workload's set-up and exits, and returns their wall times. A
// fresh process pays what a user's process pays before its first point can
// start: runtime and package initialization, registry build, scale
// validation and point enumeration.
func probeSetup(workload string, probes int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < probes; i++ {
		cmd := exec.Command(exe, probeFlag, workload)
		cmd.Stderr = os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(start).Seconds())
	}
	return out, nil
}
