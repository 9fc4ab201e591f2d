package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"distlap/internal/congest"
	"distlap/internal/core"
	"distlap/internal/graph"
	"distlap/internal/linalg"
	"distlap/internal/simtrace"
)

// traceOf runs one traced solve and returns the flushed JSONL stream.
func traceOf(t *testing.T, mode core.Mode) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	tr := simtrace.NewJSONL(&buf)
	g := graph.Grid(5, 5)
	b := linalg.RandomBVector(g.N(), 3)
	if _, err := core.SolveOnce(context.Background(), g, b, core.PrepareConfig{
		Mode: mode, Tol: 1e-6, Seed: 1, Trace: tr,
	}); err != nil {
		t.Fatalf("solve: %v", err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return &buf
}

// TestRenderSolveTrace pins the acceptance identity: for both the universal
// and baseline modes, the rendered per-phase rounds sum exactly to the
// engine totals (render errors on mismatch).
func TestRenderSolveTrace(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeUniversal, core.ModeBaseline} {
		buf := traceOf(t, mode)
		var out bytes.Buffer
		if err := render(buf, &out, 5); err != nil {
			t.Fatalf("mode %v: render: %v", mode, err)
		}
		s := out.String()
		for _, want := range []string{
			"accounting identity holds",
			"solve/matvec",
			"congest",
		} {
			if !strings.Contains(s, want) {
				t.Errorf("mode %v: output missing %q:\n%s", mode, want, s)
			}
		}
	}
}

// TestRenderDetectsMismatch corrupts an engine total and checks render
// fails.
func TestRenderDetectsMismatch(t *testing.T) {
	in := strings.Join([]string{
		`{"ev":"phase","path":"solve","count":1,"rounds":5,"messages":10}`,
		`{"ev":"engine","engine":"congest","rounds":7,"messages":10}`,
	}, "\n")
	var out bytes.Buffer
	err := render(strings.NewReader(in), &out, 5)
	if err == nil || !strings.Contains(err.Error(), "accounting mismatch") {
		t.Fatalf("want accounting mismatch error, got %v", err)
	}
}

// TestRenderUntrackedBalances includes charges outside any span.
func TestRenderUntrackedBalances(t *testing.T) {
	in := strings.Join([]string{
		`{"ev":"untracked","rounds":3,"messages":4}`,
		`{"ev":"phase","path":"solve","count":1,"rounds":5,"messages":10}`,
		`{"ev":"engine","engine":"congest","rounds":8,"messages":14}`,
		`{"ev":"counter","name":"ncc.sends","value":9}`,
		`{"ev":"edge","engine":"congest","edge":4,"words":12}`,
	}, "\n")
	var out bytes.Buffer
	if err := render(strings.NewReader(in), &out, 5); err != nil {
		t.Fatalf("render: %v", err)
	}
	for _, want := range []string{"(untracked)", "ncc.sends", "dir-edge"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRenderEmptyTrace errors on a stream with no summary records.
func TestRenderEmptyTrace(t *testing.T) {
	var out bytes.Buffer
	if err := render(strings.NewReader(`{"ev":"begin","path":"x"}`), &out, 5); err == nil {
		t.Fatal("want error for summary-free stream")
	}
}

// TestRenderFoldedAndTimeline drives a traced solve through the renderer
// modes: folded stacks must carry slash-to-semicolon phase frames, and the
// timeline must render from a series-enabled trace.
func TestRenderFoldedAndTimeline(t *testing.T) {
	var buf bytes.Buffer
	tr := simtrace.NewJSONLSeries(&buf)
	g := graph.Grid(5, 5)
	b := linalg.RandomBVector(g.N(), 3)
	if _, err := core.SolveOnce(context.Background(), g, b, core.PrepareConfig{
		Mode: core.ModeUniversal, Tol: 1e-6, Seed: 1, Trace: tr,
	}); err != nil {
		t.Fatalf("solve: %v", err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	raw := buf.Bytes()

	var folded bytes.Buffer
	if err := renderFolded(bytes.NewReader(raw), &folded, "rounds"); err != nil {
		t.Fatalf("folded: %v", err)
	}
	if !strings.Contains(folded.String(), "solve;matvec ") {
		t.Errorf("folded output missing solve;matvec frame:\n%s", folded.String())
	}

	var timeline bytes.Buffer
	if err := renderTimeline(bytes.NewReader(raw), &timeline, 40); err != nil {
		t.Fatalf("timeline: %v", err)
	}
	for _, want := range []string{"timeline:", "max edge load"} {
		if !strings.Contains(timeline.String(), want) {
			t.Errorf("timeline output missing %q:\n%s", want, timeline.String())
		}
	}

	// A non-series trace must render tables (with node aggregates) but
	// refuse -timeline.
	nonSeries := traceOf(t, core.ModeUniversal)
	var tables bytes.Buffer
	if err := render(bytes.NewReader(nonSeries.Bytes()), &tables, 5); err != nil {
		t.Fatalf("render: %v", err)
	}
	for _, want := range []string{"top congested nodes", "node-load histogram", "gauges"} {
		if !strings.Contains(tables.String(), want) {
			t.Errorf("table output missing %q", want)
		}
	}
	if err := renderTimeline(bytes.NewReader(nonSeries.Bytes()), &timeline, 40); err == nil {
		t.Error("timeline accepted a trace without series records")
	}
}

// TestRenderMSTTrace exercises a traced network directly (no solver): the
// identity must hold for arbitrary span structures too.
func TestRenderMSTTrace(t *testing.T) {
	var buf bytes.Buffer
	tr := simtrace.NewJSONL(&buf)
	g := graph.Grid(4, 4)
	nw := congest.NewNetwork(g, congest.Options{Supported: true, Seed: 2, Trace: tr})
	nw.ChargeRounds(7) // outside any span: must land in untracked
	tr.Begin("probe")
	nw.ChargeRounds(5)
	tr.End("probe")
	if err := tr.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	var out bytes.Buffer
	if err := render(&buf, &out, 5); err != nil {
		t.Fatalf("render: %v", err)
	}
	if !strings.Contains(out.String(), "(untracked)") {
		t.Errorf("expected untracked row:\n%s", out.String())
	}
}
