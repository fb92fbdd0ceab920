package main

import (
	"regexp"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro/internal/ctmc
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkTransientSeries/uncached-4         	      50	  22427268 ns/op
BenchmarkTransientSeries/cached-4           	     300	   3587139 ns/op	    1024 B/op	       3 allocs/op
BenchmarkFirstPassageCDF-4                  	     500	   2561139 ns/op
PASS
ok  	repro/internal/ctmc	4.2s
pkg: repro/internal/numeric/sparse
BenchmarkToCSR-4   	     100	  11000000 ns/op
BenchmarkToCSR-4   	     100	  10500000 ns/op
BenchmarkVecMulParallel/transpose-workers=2-4 	 1000	 400000 ns/op
--- some unrelated line ---
`

func TestParseBench(t *testing.T) {
	got, allocs, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkTransientSeries/uncached":           22427268,
		"BenchmarkTransientSeries/cached":             3587139,
		"BenchmarkFirstPassageCDF":                    2561139,
		"BenchmarkToCSR":                              10500000, // min of the two runs
		"BenchmarkVecMulParallel/transpose-workers=2": 400000,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(got), len(want), got)
	}
	for name, ns := range want {
		if got[name] != ns {
			t.Errorf("%s = %g, want %g", name, got[name], ns)
		}
	}
	// Only the cached line carries the -benchmem columns.
	wantAllocs := map[string]float64{"BenchmarkTransientSeries/cached": 3}
	if len(allocs) != len(wantAllocs) {
		t.Fatalf("parsed %d allocs entries, want %d: %v", len(allocs), len(wantAllocs), allocs)
	}
	if allocs["BenchmarkTransientSeries/cached"] != 3 {
		t.Errorf("cached allocs = %g, want 3", allocs["BenchmarkTransientSeries/cached"])
	}
}

func TestParseBenchAllocsMinOverRepeats(t *testing.T) {
	out := `
BenchmarkFoo-4   10  5000000 ns/op  2048 B/op  7 allocs/op
BenchmarkFoo-4   10  4000000 ns/op  2048 B/op  5 allocs/op
`
	ns, allocs, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if ns["BenchmarkFoo"] != 4000000 || allocs["BenchmarkFoo"] != 5 {
		t.Fatalf("min not kept: ns=%g allocs=%g", ns["BenchmarkFoo"], allocs["BenchmarkFoo"])
	}
}

func TestNormalizeName(t *testing.T) {
	cases := map[string]string{
		"BenchmarkToCSR-8": "BenchmarkToCSR",
		"BenchmarkToCSR":   "BenchmarkToCSR",
		"BenchmarkVecMulParallel/transpose-workers=2-4": "BenchmarkVecMulParallel/transpose-workers=2",
		"BenchmarkTransientWorkers/workers=8-16":        "BenchmarkTransientWorkers/workers=8",
	}
	for in, want := range cases {
		if got := normalizeName(in); got != want {
			t.Errorf("normalizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCompareGating(t *testing.T) {
	gate := regexp.MustCompile(`TransientSeries|ToCSR`)
	base := map[string]float64{
		"BenchmarkTransientSeries/cached": 100,
		"BenchmarkToCSR":                  100,
		"BenchmarkFirstPassageCDF":        100,
	}
	cases := []struct {
		name       string
		current    map[string]float64
		wantFailed bool
	}{
		{"all flat", map[string]float64{"BenchmarkTransientSeries/cached": 100, "BenchmarkToCSR": 100, "BenchmarkFirstPassageCDF": 100}, false},
		{"gated within threshold", map[string]float64{"BenchmarkToCSR": 119}, false},
		{"gated beyond threshold", map[string]float64{"BenchmarkToCSR": 121}, true},
		{"ungated regression ignored", map[string]float64{"BenchmarkFirstPassageCDF": 500}, false},
		{"new benchmark never fails", map[string]float64{"BenchmarkTransientSeries/brandnew": 1e9}, false},
		{"improvement never fails", map[string]float64{"BenchmarkTransientSeries/cached": 10}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := compare(tc.current, nil, base, nil, gate, 1.2, 1.25)
			if rep.Failed != tc.wantFailed {
				t.Fatalf("Failed = %v, want %v (%+v)", rep.Failed, tc.wantFailed, rep.Results)
			}
		})
	}
}

func TestCompareFlagsRegressedResult(t *testing.T) {
	gate := regexp.MustCompile(`ToCSR`)
	rep := compare(map[string]float64{"BenchmarkToCSR": 150}, nil, map[string]float64{"BenchmarkToCSR": 100}, nil, gate, 1.2, 1.25)
	if len(rep.Results) != 1 {
		t.Fatalf("got %d results", len(rep.Results))
	}
	r := rep.Results[0]
	if !r.Gated || !r.Regressed || r.Ratio != 1.5 || r.Baseline != 100 {
		t.Fatalf("unexpected result: %+v", r)
	}
}

func TestCompareAllocsGating(t *testing.T) {
	gate := regexp.MustCompile(`ToCSR`)
	baseNs := map[string]float64{"BenchmarkToCSR": 100, "BenchmarkFirstPassageCDF": 100}
	baseAllocs := map[string]float64{"BenchmarkToCSR": 10, "BenchmarkFirstPassageCDF": 10}
	cases := []struct {
		name       string
		ns, allocs map[string]float64
		wantFailed bool
	}{
		{"time flat, allocs flat", map[string]float64{"BenchmarkToCSR": 100}, map[string]float64{"BenchmarkToCSR": 10}, false},
		{"time flat, allocs within threshold", map[string]float64{"BenchmarkToCSR": 100}, map[string]float64{"BenchmarkToCSR": 12}, false},
		{"time flat, allocs beyond threshold", map[string]float64{"BenchmarkToCSR": 100}, map[string]float64{"BenchmarkToCSR": 13}, true},
		{"ungated allocs regression ignored", map[string]float64{"BenchmarkFirstPassageCDF": 100}, map[string]float64{"BenchmarkFirstPassageCDF": 100}, false},
		{"no current allocs: time-only gate", map[string]float64{"BenchmarkToCSR": 100}, nil, false},
		{"no baseline allocs: time-only gate", map[string]float64{"BenchmarkToCSR": 100}, map[string]float64{"BenchmarkToCSR": 1000}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ba := baseAllocs
			if tc.name == "no baseline allocs: time-only gate" {
				ba = nil
			}
			rep := compare(tc.ns, tc.allocs, baseNs, ba, gate, 1.2, 1.25)
			if rep.Failed != tc.wantFailed {
				t.Fatalf("Failed = %v, want %v (%+v)", rep.Failed, tc.wantFailed, rep.Results)
			}
		})
	}
}

func TestDefaultGateCoversDerivation(t *testing.T) {
	gate := regexp.MustCompile(defaultGate)
	for _, name := range []string{"BenchmarkExplore", "BenchmarkExploreSmall/tableI", "BenchmarkExploreSmall/pclan6"} {
		if !gate.MatchString(name) {
			t.Errorf("default gate %q does not gate %s", defaultGate, name)
		}
	}
}
