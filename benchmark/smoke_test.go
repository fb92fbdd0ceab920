package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"
)

var updateReference = flag.Bool("update-reference", false, "rewrite testdata/reference.json with seed 1's solve and sweep values")

var testGoldens = filepath.Join("..", "testdata", "goldens")

// TestSmoke runs every workload for two ops, untraced and traced, through
// the set-up, output checks and per-layer metrics a full run uses.
func TestSmoke(t *testing.T) {
	for _, w := range workloads() {
		for _, traced := range []bool{false, true} {
			t.Run(w.name+"/traced="+strconv.FormatBool(traced), func(t *testing.T) {
				e := &env{seed: 2, traced: traced, goldens: testGoldens}
				r, err := w.setup(e)
				if err != nil {
					t.Fatal(err)
				}
				defer r.close()
				if traced {
					e.tr = newTracer(1)
				}
				for i := 0; i < 2; i++ {
					e.tr.beginOp()
					start := time.Now()
					kind, err := r.op()
					e.tr.endOp(kind, time.Since(start))
					if err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
				}
				if err := r.finish(); err != nil {
					t.Fatal(err)
				}
				if !traced {
					return
				}
				for _, m := range append(append([]layerMetric(nil), w.layers...), harnessLayers...) {
					v := m.value(e.tr.ops)
					if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
						t.Errorf("%s = %g", m.name, v)
					}
					// Two hub ops need not cover both kinds; the other
					// workloads call every layer they report on every op.
					if m.unit == "ms" && v == 0 && w.name != "hub" {
						t.Errorf("%s is 0 after two traced ops", m.name)
					}
				}
			})
		}
	}
}

// TestHubMixMatchesPaperPass checks that the hub workload's push:pull mix
// is the one a paper pass sends to its hub.
func TestHubMixMatchesPaperPass(t *testing.T) {
	e := &env{seed: 1, traced: true, goldens: testGoldens}
	r, err := newPaper(e)
	if err != nil {
		t.Fatal(err)
	}
	e.tr = newTracer(1)
	e.tr.beginOp()
	if _, err := r.(*paperRun).pass(); err != nil {
		t.Fatal(err)
	}
	pushes := e.tr.counters[`hub_client_attempts_total{op="push"}`]
	pulls := e.tr.counters[`hub_client_attempts_total{op="pull"}`]
	if pushes != paperPushes || pulls != paperPulls {
		t.Errorf("a paper pass pushes %g and pulls %g images; the hub mix assumes %d and %d", pushes, pulls, paperPushes, paperPulls)
	}
	if retries := e.tr.counters["hub_client_retries_total"]; retries != 0 {
		t.Errorf("%g retries would inflate the attempt counts", retries)
	}
}

// TestReference pins seed 1's solve and sweep values. After an intended
// change to them, rerun with -update-reference.
func TestReference(t *testing.T) {
	got := referenceFile{}
	for _, w := range []*workload{solveWorkload, sweepWorkload} {
		r, err := w.setup(&env{seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var values []float64
		switch run := r.(type) {
		case *solveRun:
			out, err := run.solve()
			if err != nil {
				t.Fatal(err)
			}
			values = out.values
		case *sweepRun:
			if values, err = run.sweep(); err != nil {
				t.Fatal(err)
			}
		}
		got[w.name] = map[string][]float64{"1": values}
		if !*updateReference {
			want, err := referenceFor(w.name, 1)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				t.Fatalf("testdata/reference.json pins no seed-1 %s values", w.name)
			}
			if err := checkReference(w.name, values, want); err != nil {
				t.Error(err)
			}
		}
	}
	if *updateReference {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", "reference.json"), append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the harness: the
// same workloads with the same reasons, and the same metric names and
// units.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []bound `json:"end_to_end"`
		PerLayer  []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness runs %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, harness has %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness reports %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if got := spec.EndToEnd[i]; got.Name != m.name || got.Unit != m.unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %s (%s), harness has %s (%s)", i, got.Name, got.Unit, m.name, m.unit)
		}
	}
	catalog := layerCatalog()
	if len(spec.PerLayer) != len(catalog) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness reports %d", len(spec.PerLayer), len(catalog))
	}
	for i, m := range catalog {
		if got := spec.PerLayer[i]; got.Name != m.name || got.Unit != m.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s (%s), harness has %s (%s)", i, got.Name, got.Unit, m.name, m.unit)
		}
	}
}
