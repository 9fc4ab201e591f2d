package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"distlap/internal/graph"
	"distlap/internal/service"
)

// quickRun runs a workload for a few requests past its warm-up.
func quickRun(t *testing.T, name string, seed int64, traced bool) *result {
	t.Helper()
	w := lookupWorkload(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	res, err := runWorkload(w, options{seed: seed, duration: 50 * time.Millisecond, traced: traced, log: io.Discard, minOps: 4})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s: correct=%v failed=%d of %d", name, res.Correct, res.Failed, res.Attempted)
	}
	return res
}

func TestDeterministicMetricsRepeat(t *testing.T) {
	for _, name := range workloadNames() {
		a := quickRun(t, name, 3, false)
		b := quickRun(t, name, 3, false)
		for _, m := range []string{"rounds_per_op", "messages_per_op"} {
			if a.Metrics[m] != b.Metrics[m] {
				t.Errorf("%s %s: %v then %v on the same seed", name, m, a.Metrics[m], b.Metrics[m])
			}
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestEveryMetricReportedWithUnit(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, distbench has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		if lookupWorkload(sw.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q unknown to distbench", sw.Name)
		}
	}
	for _, name := range workloadNames() {
		e2e := quickRun(t, name, 5, false)
		if len(e2e.Metrics) != len(spec.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics, BENCHMARK.json names %d", name, len(e2e.Metrics), len(spec.EndToEnd))
		}
		for _, m := range spec.EndToEnd {
			got, ok := e2e.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || !(got.Value > 0) {
				t.Errorf("%s: end-to-end %s = %+v (present %v), want a positive value in %s", name, m.Name, got, ok, m.Unit)
			}
		}
		layers := quickRun(t, name, 5, true)
		if len(layers.Metrics) != len(spec.PerLayer) {
			t.Errorf("%s: %d per-layer metrics, BENCHMARK.json names %d", name, len(layers.Metrics), len(spec.PerLayer))
		}
		for _, m := range spec.PerLayer {
			if got, ok := layers.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: per-layer %s = %+v (present %v), want unit %s", name, m.Name, got, ok, m.Unit)
			}
		}
	}
}

// perturbing wraps a handler and corrupts every 200 API response body
// with edit before the client sees it.
func perturbing(h http.Handler, edit func(map[string]any)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, r)
		body := rw.Body.Bytes()
		if rw.Code == http.StatusOK && r.URL.Path != "/metrics" {
			var v map[string]any
			if err := json.Unmarshal(body, &v); err == nil {
				edit(v)
				body, _ = json.Marshal(v)
			}
		}
		w.WriteHeader(rw.Code)
		_, _ = io.Copy(w, bytes.NewReader(body))
	})
}

func TestOracleCountsPerturbedAnswersAsFailed(t *testing.T) {
	edits := map[string]func(map[string]any){
		"grid-solve": func(v map[string]any) {
			x := v["results"].([]any)[0].(map[string]any)["x"].([]any)
			x[0] = x[0].(float64) + 1e-3
		},
		"mst-serve": func(v map[string]any) { v["weight"] = v["weight"].(float64) + 1 },
		"load-churn": func(v map[string]any) {
			inst := v["instance"].(map[string]any)
			inst["nodes"] = inst["nodes"].(float64) + 1
		},
	}
	for name, edit := range edits {
		w := lookupWorkload(name)
		rng := rand.New(rand.NewSource(9))
		fx, err := w.newFixture(rng)
		if err != nil {
			t.Fatal(err)
		}
		b := &bench{w: w, fx: fx, rng: rng, log: io.Discard}
		if _, err := b.setup(); err != nil {
			t.Fatal(err)
		}
		clean := b.loop(countStop(2), nil)
		if clean.failed != 0 {
			t.Fatalf("%s: %d of %d unperturbed requests failed", name, clean.failed, clean.attempted)
		}
		b.h = perturbing(b.h, edit)
		bad := b.loop(countStop(3), nil)
		if bad.attempted != 3 || bad.failed != 3 {
			t.Errorf("%s: perturbed answers: %d of %d failed, want all", name, bad.failed, bad.attempted)
		}
	}
}

func TestMSTOracleRejectsCycle(t *testing.T) {
	// A triangle with a pendant edge, all of weight 1: the triangle's three
	// edges are n−1 edges of the MST's weight, but not a spanning tree.
	g := graph.New(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}} {
		if _, err := g.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	tree, w := graph.MST(g)
	if err := checkMST(g, w, &service.MSTResponse{Weight: w, Edges: tree}); err != nil {
		t.Fatalf("true MST rejected: %v", err)
	}
	if err := checkMST(g, w, &service.MSTResponse{Weight: w, Edges: []graph.EdgeID{0, 1, 2}}); err == nil {
		t.Error("a cycle of the MST's weight passed the oracle")
	}
}
