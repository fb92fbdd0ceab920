// Command benchcmp compares `go test -bench` output against a committed
// baseline and fails when a gated benchmark regresses beyond a threshold.
// It backs `make bench-compare` (see docs/PERFORMANCE.md):
//
//	go test -bench=. ./... | benchcmp -baseline BENCH_baseline.json
//	go test -bench=. ./... | benchcmp -baseline BENCH_baseline.json -update
//
// Benchmark names are normalized by stripping the trailing -N GOMAXPROCS
// suffix, so baselines survive core-count changes; ns/op is the compared
// quantity, and allocs/op is compared too when the input was produced
// with -benchmem. Only benchmarks whose normalized name matches -gate can
// fail the run — everything else is reported informationally.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"

	"repro/internal/sigctx"
)

// Baseline is the persisted benchmark snapshot (BENCH_baseline.json).
type Baseline struct {
	// Note records where the numbers came from; informational only.
	Note string `json:"note,omitempty"`
	// NsPerOp maps the normalized benchmark name to its ns/op.
	NsPerOp map[string]float64 `json:"ns_per_op"`
	// AllocsPerOp maps the normalized benchmark name to its allocs/op.
	// Present only for benchmarks recorded with -benchmem.
	AllocsPerOp map[string]float64 `json:"allocs_per_op,omitempty"`
}

// Result is one parsed benchmark line.
type Result struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
	// Baseline is the stored ns/op, 0 when the benchmark is new.
	Baseline float64 `json:"baseline_ns_per_op,omitempty"`
	// Ratio is current/baseline (>1 means slower), 0 when new.
	Ratio float64 `json:"ratio,omitempty"`
	// AllocsPerOp is the measured allocs/op; present with -benchmem.
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// BaselineAllocs is the stored allocs/op, 0 when absent.
	BaselineAllocs float64 `json:"baseline_allocs_per_op,omitempty"`
	// AllocsRatio is current/baseline allocs per op, 0 when either side
	// is missing. Allocation counts are near-deterministic, so this
	// catches scratch-buffer regressions absolute timings absorb in noise.
	AllocsRatio float64 `json:"allocs_ratio,omitempty"`
	// Gated marks benchmarks that can fail the run.
	Gated bool `json:"gated"`
	// Regressed is set when Gated and Ratio (time or allocs) exceeds its
	// threshold.
	Regressed bool `json:"regressed"`
}

// Report is the JSON comparison artifact written by -out.
type Report struct {
	Threshold       float64  `json:"threshold"`
	AllocsThreshold float64  `json:"allocs_threshold,omitempty"`
	Gate            string   `json:"gate"`
	Results         []Result `json:"results"`
	Failed          bool     `json:"failed"`
}

// benchLine matches e.g. "BenchmarkToCSR-4   	 100	  12345678 ns/op	..."
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.]+) ns/op`)

// allocsSuffix matches the trailing -benchmem column on the same line,
// e.g. "	    1024 B/op	       3 allocs/op".
var allocsSuffix = regexp.MustCompile(`\s([0-9]+) allocs/op`)

// gomaxprocsSuffix strips the trailing -N that `go test` appends for
// GOMAXPROCS != 1, so baselines transfer between machines with different
// core counts.
var gomaxprocsSuffix = regexp.MustCompile(`-[0-9]+$`)

func normalizeName(name string) string {
	return gomaxprocsSuffix.ReplaceAllString(name, "")
}

// parseBench extracts (normalized name -> ns/op) pairs from `go test -bench`
// output, plus (normalized name -> allocs/op) for lines carrying the
// -benchmem column. A benchmark appearing more than once (e.g. several
// packages or -count > 1) keeps its minimum — the least noisy estimate.
func parseBench(r io.Reader) (ns, allocs map[string]float64, err error) {
	ns = map[string]float64{}
	allocs = map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, nil, fmt.Errorf("benchcmp: bad ns/op in %q: %v", sc.Text(), err)
		}
		name := normalizeName(m[1])
		if prev, ok := ns[name]; !ok || v < prev {
			ns[name] = v
		}
		if am := allocsSuffix.FindStringSubmatch(sc.Text()); am != nil {
			a, err := strconv.ParseFloat(am[1], 64)
			if err != nil {
				return nil, nil, fmt.Errorf("benchcmp: bad allocs/op in %q: %v", sc.Text(), err)
			}
			if prev, ok := allocs[name]; !ok || a < prev {
				allocs[name] = a
			}
		}
	}
	return ns, allocs, sc.Err()
}

// compare builds the report for current vs baseline. A gated benchmark
// regresses when its ns/op ratio exceeds threshold OR its allocs/op ratio
// exceeds allocsThreshold (the latter only when both sides carry an
// allocation count — baselines recorded before -benchmem gate on time
// alone until re-recorded).
func compare(current, currentAllocs, base, baseAllocs map[string]float64, gate *regexp.Regexp, threshold, allocsThreshold float64) Report {
	names := make([]string, 0, len(current))
	for name := range current {
		names = append(names, name)
	}
	sort.Strings(names)
	rep := Report{Threshold: threshold, AllocsThreshold: allocsThreshold, Gate: gate.String()}
	for _, name := range names {
		res := Result{Name: name, NsPerOp: current[name], Gated: gate.MatchString(name)}
		if b, ok := base[name]; ok && b > 0 {
			res.Baseline = b
			res.Ratio = res.NsPerOp / b
			res.Regressed = res.Gated && res.Ratio > threshold
		}
		if a, ok := currentAllocs[name]; ok {
			res.AllocsPerOp = a
			if ba, ok := baseAllocs[name]; ok && ba > 0 {
				res.BaselineAllocs = ba
				res.AllocsRatio = a / ba
				if res.Gated && res.AllocsRatio > allocsThreshold {
					res.Regressed = true
				}
			}
		}
		if res.Regressed {
			rep.Failed = true
		}
		rep.Results = append(rep.Results, res)
	}
	return rep
}

func formatReport(w io.Writer, rep Report) {
	fmt.Fprintf(w, "%-60s %14s %14s %8s %12s\n", "benchmark", "ns/op", "baseline", "ratio", "allocs/op")
	for _, r := range rep.Results {
		mark := " "
		if r.Regressed {
			mark = "!"
		} else if r.Gated {
			mark = "*"
		}
		allocs := "-"
		if r.AllocsPerOp > 0 || r.BaselineAllocs > 0 {
			allocs = fmt.Sprintf("%.0f", r.AllocsPerOp)
			if r.AllocsRatio > 0 {
				allocs += fmt.Sprintf(" (%.2fx)", r.AllocsRatio)
			}
		}
		if r.Baseline > 0 {
			fmt.Fprintf(w, "%s %-58s %14.0f %14.0f %7.2fx %12s\n", mark, r.Name, r.NsPerOp, r.Baseline, r.Ratio, allocs)
		} else {
			fmt.Fprintf(w, "%s %-58s %14.0f %14s %8s %12s\n", mark, r.Name, r.NsPerOp, "(new)", "-", allocs)
		}
	}
	fmt.Fprintln(w, "(* gated benchmark, ! gated regression beyond threshold)")
}

// defaultGate names the benchmarks that may fail a comparison. Explore
// covers BenchmarkExplore and the small-model rows of
// BenchmarkExploreSmall, which catch a derivation whose setup costs more
// than it saves on the models each sweep derives.
const defaultGate = "TransientSeries|ToCSR|AssemblyReuse|PerturbationSweep|Explore"

func run() error {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "baseline snapshot to compare against")
	update := flag.Bool("update", false, "rewrite the baseline from the parsed input instead of comparing")
	gateExpr := flag.String("gate", defaultGate, "regexp of benchmark names that may fail the run")
	threshold := flag.Float64("threshold", 1.2, "max allowed current/baseline ns per op ratio for gated benchmarks")
	allocsThreshold := flag.Float64("allocs-threshold", 1.25, "max allowed current/baseline allocs per op ratio for gated benchmarks (compared only when both sides were recorded with -benchmem)")
	out := flag.String("out", "", "also write the comparison report as JSON to this file")
	note := flag.String("note", "", "note stored in the baseline with -update")
	flag.Parse()

	// SIGINT or SIGTERM while parsing stdin cancels before any file is
	// written; a second signal force-aborts.
	ctx, stop := sigctx.WithSignals(context.Background())
	defer stop()

	gate, err := regexp.Compile(*gateExpr)
	if err != nil {
		return fmt.Errorf("benchcmp: bad -gate: %v", err)
	}
	current, currentAllocs, err := parseBench(os.Stdin)
	if err != nil {
		return err
	}
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("benchcmp: interrupted: %w", cerr)
	}
	if len(current) == 0 {
		return fmt.Errorf("benchcmp: no benchmark lines on stdin (pipe `go test -bench` output in)")
	}

	if *update {
		b := Baseline{Note: *note, NsPerOp: current}
		if len(currentAllocs) > 0 {
			b.AllocsPerOp = currentAllocs
		}
		data, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*baselinePath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("benchcmp: wrote %d benchmarks to %s\n", len(current), *baselinePath)
		return nil
	}

	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		return fmt.Errorf("benchcmp: %v (run with -update to record a baseline)", err)
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("benchcmp: %s: %v", *baselinePath, err)
	}
	rep := compare(current, currentAllocs, base.NsPerOp, base.AllocsPerOp, gate, *threshold, *allocsThreshold)
	formatReport(os.Stdout, rep)
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if rep.Failed {
		return fmt.Errorf("benchcmp: gated benchmark regressed beyond %.2fx ns/op (or %.2fx allocs/op)", *threshold, *allocsThreshold)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
