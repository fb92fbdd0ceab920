package main

import (
	"encoding/json"
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
BenchmarkAssembleRows-4   	     100	  11000000 ns/op
BenchmarkAssembleRows-4   	     100	  10500000 ns/op
BenchmarkVecMulParallel/transpose-workers=2-4 	 1000	 400000 ns/op
--- some unrelated line ---
`

func TestParseBench(t *testing.T) {
	parsed, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	got, bytes, allocs := parsed.NsPerOp, parsed.BytesPerOp, parsed.AllocsPerOp
	want := map[string]float64{
		"BenchmarkTransientSeries/uncached":           22427268,
		"BenchmarkTransientSeries/cached":             3587139,
		"BenchmarkFirstPassageCDF":                    2561139,
		"BenchmarkAssembleRows":                       10500000, // min of the two runs
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
	if len(bytes) != 1 || bytes["BenchmarkTransientSeries/cached"] != 1024 {
		t.Errorf("bytes = %v, want only the cached line's 1024 B/op", bytes)
	}
	// -update stores the parsed snapshot whole, B/op included.
	data, err := json.Marshal(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"bytes_per_op":{"BenchmarkTransientSeries/cached":1024}`) {
		t.Errorf("recorded baseline %s lacks the B/op column", data)
	}
}

// TestParseBenchAllocsMinOverRepeats: each column keeps its own minimum
// over repeated lines, even when the minima come from different lines.
func TestParseBenchAllocsMinOverRepeats(t *testing.T) {
	out := `
BenchmarkFoo-4   10  5000000 ns/op  2048 B/op  7 allocs/op
BenchmarkFoo-4   10  4000000 ns/op  4096 B/op  5 allocs/op
`
	b, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if b.NsPerOp["BenchmarkFoo"] != 4000000 || b.BytesPerOp["BenchmarkFoo"] != 2048 || b.AllocsPerOp["BenchmarkFoo"] != 5 {
		t.Fatalf("min not kept: ns=%g bytes=%g allocs=%g", b.NsPerOp["BenchmarkFoo"], b.BytesPerOp["BenchmarkFoo"], b.AllocsPerOp["BenchmarkFoo"])
	}
}

func TestNormalizeName(t *testing.T) {
	cases := map[string]string{
		"BenchmarkAssembleRows-8":                       "BenchmarkAssembleRows",
		"BenchmarkAssembleRows":                         "BenchmarkAssembleRows",
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
	gate := regexp.MustCompile(`TransientSeries|AssembleRows`)
	base := map[string]float64{
		"BenchmarkTransientSeries/cached": 100,
		"BenchmarkAssembleRows":           100,
		"BenchmarkFirstPassageCDF":        100,
	}
	cases := []struct {
		name       string
		current    map[string]float64
		wantFailed bool
	}{
		{"all flat", map[string]float64{"BenchmarkTransientSeries/cached": 100, "BenchmarkAssembleRows": 100, "BenchmarkFirstPassageCDF": 100}, false},
		{"gated within threshold", map[string]float64{"BenchmarkAssembleRows": 119}, false},
		{"gated beyond threshold", map[string]float64{"BenchmarkAssembleRows": 121}, true},
		{"ungated regression ignored", map[string]float64{"BenchmarkFirstPassageCDF": 500}, false},
		{"new benchmark never fails", map[string]float64{"BenchmarkTransientSeries/brandnew": 1e9}, false},
		{"improvement never fails", map[string]float64{"BenchmarkTransientSeries/cached": 10}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := compare(Baseline{NsPerOp: tc.current}, Baseline{NsPerOp: base}, gate, 1.2, 1.25)
			if rep.Failed != tc.wantFailed {
				t.Fatalf("Failed = %v, want %v (%+v)", rep.Failed, tc.wantFailed, rep.Results)
			}
		})
	}
}

func TestCompareFlagsRegressedResult(t *testing.T) {
	gate := regexp.MustCompile(`AssembleRows`)
	rep := compare(Baseline{NsPerOp: map[string]float64{"BenchmarkAssembleRows": 150}}, Baseline{NsPerOp: map[string]float64{"BenchmarkAssembleRows": 100}}, gate, 1.2, 1.25)
	if len(rep.Results) != 1 {
		t.Fatalf("got %d results", len(rep.Results))
	}
	r := rep.Results[0]
	if !r.Gated || !r.Regressed || r.Ratio != 1.5 || r.Baseline != 100 {
		t.Fatalf("unexpected result: %+v", r)
	}
}

func TestCompareAllocsGating(t *testing.T) {
	gate := regexp.MustCompile(`AssembleRows`)
	baseNs := map[string]float64{"BenchmarkAssembleRows": 100, "BenchmarkFirstPassageCDF": 100}
	baseAllocs := map[string]float64{"BenchmarkAssembleRows": 10, "BenchmarkFirstPassageCDF": 10}
	cases := []struct {
		name       string
		ns, allocs map[string]float64
		wantFailed bool
	}{
		{"time flat, allocs flat", map[string]float64{"BenchmarkAssembleRows": 100}, map[string]float64{"BenchmarkAssembleRows": 10}, false},
		{"time flat, allocs within threshold", map[string]float64{"BenchmarkAssembleRows": 100}, map[string]float64{"BenchmarkAssembleRows": 12}, false},
		{"time flat, allocs beyond threshold", map[string]float64{"BenchmarkAssembleRows": 100}, map[string]float64{"BenchmarkAssembleRows": 13}, true},
		{"ungated allocs regression ignored", map[string]float64{"BenchmarkFirstPassageCDF": 100}, map[string]float64{"BenchmarkFirstPassageCDF": 100}, false},
		{"no current allocs: time-only gate", map[string]float64{"BenchmarkAssembleRows": 100}, nil, false},
		{"no baseline allocs: time-only gate", map[string]float64{"BenchmarkAssembleRows": 100}, map[string]float64{"BenchmarkAssembleRows": 1000}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ba := baseAllocs
			if tc.name == "no baseline allocs: time-only gate" {
				ba = nil
			}
			rep := compare(Baseline{NsPerOp: tc.ns, AllocsPerOp: tc.allocs}, Baseline{NsPerOp: baseNs, AllocsPerOp: ba}, gate, 1.2, 1.25)
			if rep.Failed != tc.wantFailed {
				t.Fatalf("Failed = %v, want %v (%+v)", rep.Failed, tc.wantFailed, rep.Results)
			}
		})
	}
}

// TestCompareZeroAllocBaseline: a gated row recorded at 0 allocs/op fails
// on any allocation (no ratio of a zero baseline exists to exceed the
// threshold), stays green at 0, and an ungated one is only reported.
func TestCompareZeroAllocBaseline(t *testing.T) {
	gate := regexp.MustCompile(`GPEPAFluidDerivative`)
	baseNs := map[string]float64{"BenchmarkGPEPAFluidDerivative": 100, "BenchmarkVecMulScatter": 100}
	baseAllocs := map[string]float64{"BenchmarkGPEPAFluidDerivative": 0, "BenchmarkVecMulScatter": 0}
	for _, tc := range []struct {
		name       string
		allocs     map[string]float64
		wantFailed bool
	}{
		{"still allocation-free", map[string]float64{"BenchmarkGPEPAFluidDerivative": 0}, false},
		{"one allocation", map[string]float64{"BenchmarkGPEPAFluidDerivative": 1}, true},
		{"ungated allocation reported only", map[string]float64{"BenchmarkVecMulScatter": 3}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ns := map[string]float64{}
			for name := range tc.allocs {
				ns[name] = 100
			}
			rep := compare(Baseline{NsPerOp: ns, AllocsPerOp: tc.allocs}, Baseline{NsPerOp: baseNs, AllocsPerOp: baseAllocs}, gate, 1.2, 1.25)
			if rep.Failed != tc.wantFailed {
				t.Fatalf("Failed = %v, want %v (%+v)", rep.Failed, tc.wantFailed, rep.Results)
			}
		})
	}
}

// TestCompareBytesGating: B/op is gated like allocs/op, by the same
// threshold — a row that allocates as often but more bytes fails — and a
// row recorded at 0 B/op fails on any byte; a baseline without B/op gates
// on what it has.
func TestCompareBytesGating(t *testing.T) {
	gate := regexp.MustCompile(`PerturbationSweep|GPEPAFluidDerivative`)
	base := Baseline{
		NsPerOp:     map[string]float64{"BenchmarkPerturbationSweep/warm": 100, "BenchmarkGPEPAFluidDerivative": 100, "BenchmarkVecMulScatter": 100},
		BytesPerOp:  map[string]float64{"BenchmarkPerturbationSweep/warm": 1000, "BenchmarkGPEPAFluidDerivative": 0, "BenchmarkVecMulScatter": 1000},
		AllocsPerOp: map[string]float64{"BenchmarkPerturbationSweep/warm": 10, "BenchmarkGPEPAFluidDerivative": 0, "BenchmarkVecMulScatter": 10},
	}
	for _, tc := range []struct {
		name          string
		bytes, allocs float64
		bench         string
		noBaseBytes   bool
		wantFailed    bool
	}{
		{"bytes flat", 1000, 10, "BenchmarkPerturbationSweep/warm", false, false},
		{"bytes at threshold", 1250, 10, "BenchmarkPerturbationSweep/warm", false, false},
		{"bytes beyond threshold, allocs flat", 1251, 10, "BenchmarkPerturbationSweep/warm", false, true},
		{"bytes fall", 10, 10, "BenchmarkPerturbationSweep/warm", false, false},
		{"no baseline bytes: allocs gate only", 5000, 10, "BenchmarkPerturbationSweep/warm", true, false},
		{"zero-byte row still allocation-free", 0, 0, "BenchmarkGPEPAFluidDerivative", false, false},
		{"zero-byte row allocates a byte", 1, 0, "BenchmarkGPEPAFluidDerivative", false, true},
		{"ungated bytes regression reported only", 5000, 10, "BenchmarkVecMulScatter", false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := base
			if tc.noBaseBytes {
				b.BytesPerOp = nil
			}
			cur := Baseline{
				NsPerOp:     map[string]float64{tc.bench: 100},
				BytesPerOp:  map[string]float64{tc.bench: tc.bytes},
				AllocsPerOp: map[string]float64{tc.bench: tc.allocs},
			}
			rep := compare(cur, b, gate, 1.2, 1.25)
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
