package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pbbf/internal/experiments"
	"pbbf/internal/scenario"
	"pbbf/internal/server"
)

// TestAxisSurfaces drives every row of the run-axis table through every
// surface that carries it, with each axis off its default: the PointKey,
// a checkpoint written by `pbbf sweep`, POST /v1/run's decode and run
// header echo, the flags of pbbf, pbbf sweep and pbbf trace, and the trace
// header. It reads the rows from the table, so a new axis is covered
// without new test code.
func TestAxisSurfaces(t *testing.T) {
	rows := scenario.AxisTable()
	var args []string
	for _, r := range rows {
		args = append(args, "-"+r.Flag, r.Example)
	}
	fs := flag.NewFlagSet("axes", flag.ContinueOnError)
	parsed := scenario.AxisFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	want := *parsed

	// pbbf: the flags parse and the run validates.
	if err := run(append([]string{"-experiment", "table1"}, args...), io.Discard); err != nil {
		t.Fatalf("pbbf: %v", err)
	}

	// pbbf sweep: the flags parse and land in the checkpoint identity.
	ckpt := filepath.Join(t.TempDir(), "axes.ckpt")
	sweep := append([]string{"-experiment", "table1", "-checkpoint", ckpt, "-progress=false"}, args...)
	if err := runSweep(context.Background(), sweep, io.Discard, io.Discard); err != nil {
		t.Fatalf("pbbf sweep: %v", err)
	}
	cp, err := scenario.LoadCheckpoint(ckpt)
	if err != nil || cp == nil {
		t.Fatalf("checkpoint: %v", err)
	}
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	ckptHeader, _, _ := bytes.Cut(raw, []byte("\n"))

	// POST /v1/run: the JSON fields decode and the run header echoes them.
	srv, err := server.New(server.Options{Registry: experiments.Registry()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := map[string]any{"experiment": "table1", "scale": "quick"}
	axesJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(axesJSON, &body); err != nil {
		t.Fatal(err)
	}
	reqBody, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/run: status %d: %s", resp.StatusCode, msg)
	}
	runHeader, err := bufio.NewReader(resp.Body).ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}

	// pbbf trace: the flags parse and the header carries the axes.
	var traced bytes.Buffer
	trace := append([]string{"trace", "-scenario", "fig13", "-point", "0", "-runs", "1", "-events", "packet"}, args...)
	if err := run(trace, &traced); err != nil {
		t.Fatalf("pbbf trace: %v", err)
	}
	traceHeader, _, _ := bytes.Cut(traced.Bytes(), []byte("\n"))

	s := scenario.Quick()
	s.Axes = want
	key := scenario.PointKey("fig13", s, scenario.Point{Series: "PSM", X: 0})
	surfaces := map[string][]byte{"checkpoint": ckptHeader, "run": runHeader, "trace": traceHeader}
	for _, r := range rows {
		t.Run(r.Flag, func(t *testing.T) {
			if !strings.Contains(key, "|"+r.Tag+"="+r.Example+"|") {
				t.Errorf("PointKey %q lacks |%s=%s", key, r.Tag, r.Example)
			}
			if cp.Axes != want {
				t.Errorf("checkpoint identity axes %+v, want %+v", cp.Axes, want)
			}
			if _, ok := body[r.JSON]; !ok {
				t.Errorf("Axes JSON %s lacks %q", axesJSON, r.JSON)
			}
			for name, line := range surfaces {
				var fields map[string]json.RawMessage
				var got scenario.Axes
				if err := json.Unmarshal(line, &fields); err != nil {
					t.Fatalf("%s header %q: %v", name, line, err)
				}
				if err := json.Unmarshal(line, &got); err != nil {
					t.Fatal(err)
				}
				if _, ok := fields[r.JSON]; !ok || got != want {
					t.Errorf("%s header %s: axes %+v, want %+v under %q", name, line, got, want, r.JSON)
				}
			}
		})
	}
}
