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

// ScalingResult is the per-family verdict of the scaling-ratio rule: for
// each benchmark family with `/workers=N` sub-benchmarks, every N > 1 is
// compared against the family's own workers=1 time *within the current
// run*. Absolute thresholds catch drift against the committed baseline;
// this rule catches negative parallel scaling that an absolute gate would
// miss entirely (every worker count can regress in lockstep and still
// pass a per-name ratio check).
type ScalingResult struct {
	Family string `json:"family"`
	// BaselineNs is the family's workers=1 ns/op in this run.
	BaselineNs float64 `json:"workers1_ns_per_op"`
	// WorstNs/WorstWorkers identify the slowest parallel variant.
	WorstNs      float64 `json:"worst_ns_per_op"`
	WorstWorkers int     `json:"worst_workers"`
	// Ratio is WorstNs / BaselineNs (> 1 means parallel slower than
	// sequential).
	Ratio     float64 `json:"ratio"`
	Gated     bool    `json:"gated"`
	Regressed bool    `json:"regressed"`
	// BestNs/BestWorkers identify the fastest parallel variant.
	BestNs      float64 `json:"best_ns_per_op,omitempty"`
	BestWorkers int     `json:"best_workers,omitempty"`
	// Plateau is set when no parallel variant beats workers=1 — flat or
	// inverted scaling. Warn-only, never a failure: a GOMAXPROCS=1 runner
	// produces exactly this shape for a perfectly healthy kernel, so the
	// rule reports the symptom and leaves the diagnosis to a human
	// (docs/PERFORMANCE.md).
	Plateau bool `json:"plateau,omitempty"`
}

// Report is the JSON comparison artifact written by -out.
type Report struct {
	Threshold       float64  `json:"threshold"`
	AllocsThreshold float64  `json:"allocs_threshold,omitempty"`
	Gate            string   `json:"gate"`
	Results         []Result `json:"results"`
	// ScalingThreshold/ScalingGate parameterize the scaling-ratio rule;
	// Scaling holds one entry per family with workers= sub-benchmarks.
	ScalingThreshold float64         `json:"scaling_threshold,omitempty"`
	ScalingGate      string          `json:"scaling_gate,omitempty"`
	Scaling          []ScalingResult `json:"scaling,omitempty"`
	Failed           bool            `json:"failed"`
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

// workersVariant splits a normalized benchmark name into its family and
// worker count, e.g. "BenchmarkTransientWorkers/workers=8" -> family
// "BenchmarkTransientWorkers", workers 8.
var workersVariant = regexp.MustCompile(`^(.+)/workers=([0-9]+)$`)

// scalingCompare applies the scaling-ratio rule to the current run:
// within each `family/workers=N` group, every N > 1 is compared against
// the family's workers=1 time, and a gated family whose worst ratio
// exceeds the threshold is marked regressed. Families without a
// workers=1 variant are skipped (there is nothing to normalize by).
func scalingCompare(current map[string]float64, gate *regexp.Regexp, threshold float64) []ScalingResult {
	type variant struct {
		workers int
		ns      float64
	}
	families := map[string][]variant{}
	for name, ns := range current {
		m := workersVariant.FindStringSubmatch(name)
		if m == nil {
			continue
		}
		w, err := strconv.Atoi(m[2])
		if err != nil {
			continue
		}
		families[m[1]] = append(families[m[1]], variant{workers: w, ns: ns})
	}
	names := make([]string, 0, len(families))
	for f := range families {
		names = append(names, f)
	}
	sort.Strings(names)
	var out []ScalingResult
	for _, fam := range names {
		var base float64
		for _, v := range families[fam] {
			if v.workers == 1 {
				base = v.ns
			}
		}
		if base <= 0 {
			continue
		}
		res := ScalingResult{Family: fam, BaselineNs: base, Gated: gate.MatchString(fam)}
		for _, v := range families[fam] {
			if v.workers <= 1 {
				continue
			}
			if ratio := v.ns / base; ratio > res.Ratio {
				res.Ratio = ratio
				res.WorstNs = v.ns
				res.WorstWorkers = v.workers
			}
			if res.BestWorkers == 0 || v.ns < res.BestNs {
				res.BestNs = v.ns
				res.BestWorkers = v.workers
			}
		}
		if res.WorstWorkers == 0 {
			continue // only a workers=1 variant: nothing to compare
		}
		res.Regressed = res.Gated && res.Ratio > threshold
		// Flat-or-worse scaling: warn only. The absolute gate above already
		// bounds how much worse "worse" may be.
		res.Plateau = res.BestNs >= base
		out = append(out, res)
	}
	return out
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
	if len(rep.Scaling) > 0 {
		fmt.Fprintf(w, "\n%-60s %14s %14s %8s\n", "scaling family", "workers=1", "worst", "ratio")
		for _, s := range rep.Scaling {
			mark := " "
			if s.Regressed {
				mark = "!"
			} else if s.Gated {
				mark = "*"
			}
			fmt.Fprintf(w, "%s %-58s %14.0f %14.0f %6.2fx (workers=%d)\n", mark, s.Family, s.BaselineNs, s.WorstNs, s.Ratio, s.WorstWorkers)
		}
		fmt.Fprintln(w, "(ratio = slowest parallel variant / workers=1, within this run)")
		for _, s := range rep.Scaling {
			if s.Plateau {
				fmt.Fprintf(w, "warn: %s: no parallel variant beats workers=1 (best workers=%d at %.0f ns/op); flat scaling — GOMAXPROCS-limited runner? (warn-only, never fails)\n",
					s.Family, s.BestWorkers, s.BestNs)
			}
		}
	}
}

func run() error {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "baseline snapshot to compare against")
	update := flag.Bool("update", false, "rewrite the baseline from the parsed input instead of comparing")
	gateExpr := flag.String("gate", "TransientSeries|ToCSR|AssemblyReuse|PerturbationSweep|Explore", "regexp of benchmark names that may fail the run")
	threshold := flag.Float64("threshold", 1.2, "max allowed current/baseline ns per op ratio for gated benchmarks")
	allocsThreshold := flag.Float64("allocs-threshold", 1.25, "max allowed current/baseline allocs per op ratio for gated benchmarks (compared only when both sides were recorded with -benchmem)")
	scalingGateExpr := flag.String("scaling-gate", "Workers", "regexp of benchmark families whose workers=N variants may fail the scaling-ratio rule")
	scalingThreshold := flag.Float64("scaling-threshold", 1.3, "max allowed workers=N / workers=1 ns per op ratio within the current run (lenient enough for single-core runners)")
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
	scalingGate, err := regexp.Compile(*scalingGateExpr)
	if err != nil {
		return fmt.Errorf("benchcmp: bad -scaling-gate: %v", err)
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
	rep.ScalingThreshold = *scalingThreshold
	rep.ScalingGate = scalingGate.String()
	rep.Scaling = scalingCompare(current, scalingGate, *scalingThreshold)
	for _, s := range rep.Scaling {
		if s.Regressed {
			rep.Failed = true
		}
	}
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
		for _, s := range rep.Scaling {
			if s.Regressed {
				return fmt.Errorf("benchcmp: %s workers=%d is %.2fx slower than workers=1 (scaling threshold %.2fx)",
					s.Family, s.WorstWorkers, s.Ratio, *scalingThreshold)
			}
		}
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
