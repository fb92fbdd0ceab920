// Command benchcmp compares `go test -bench` output against a committed
// baseline and fails when a gated benchmark regresses beyond a threshold.
// It backs `make bench-compare` (see docs/PERFORMANCE.md):
//
//	go test -bench=. ./... | benchcmp -baseline BENCH_baseline.json
//	go test -bench=. ./... | benchcmp -baseline BENCH_baseline.json -update
//
// Benchmark names are normalized by stripping the trailing -N GOMAXPROCS
// suffix, so baselines survive core-count changes; ns/op is the compared
// quantity, and B/op and allocs/op are compared too when the input was
// produced with -benchmem. Only benchmarks whose normalized name matches
// -gate can fail the run — everything else is reported informationally.
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
	// BytesPerOp and AllocsPerOp map the normalized benchmark name to its
	// B/op and allocs/op. Present only for benchmarks recorded with
	// -benchmem.
	BytesPerOp  map[string]float64 `json:"bytes_per_op,omitempty"`
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
	// BytesPerOp is the measured B/op; present with -benchmem.
	BytesPerOp float64 `json:"bytes_per_op,omitempty"`
	// BaselineBytes is the stored B/op, 0 when absent.
	BaselineBytes float64 `json:"baseline_bytes_per_op,omitempty"`
	// BytesRatio is current/baseline bytes per op, 0 when either side is
	// missing or the baseline is 0.
	BytesRatio float64 `json:"bytes_ratio,omitempty"`
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
	// Regressed is set when Gated and Ratio (time, bytes or allocs)
	// exceeds its threshold.
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

// benchLine matches e.g. "BenchmarkAssembleRows-4   	 100	  12345678 ns/op	..."
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.]+) ns/op`)

// memColumns matches the trailing -benchmem columns on the same line,
// e.g. "	    1024 B/op	       3 allocs/op".
var memColumns = regexp.MustCompile(`\s([0-9]+) B/op\s+([0-9]+) allocs/op`)

// gomaxprocsSuffix strips the trailing -N that `go test` appends for
// GOMAXPROCS != 1, so baselines transfer between machines with different
// core counts.
var gomaxprocsSuffix = regexp.MustCompile(`-[0-9]+$`)

func normalizeName(name string) string {
	return gomaxprocsSuffix.ReplaceAllString(name, "")
}

// parseBench extracts the normalized name -> ns/op pairs from `go test
// -bench` output into NsPerOp, and the name -> B/op and allocs/op pairs of
// lines carrying the -benchmem columns into BytesPerOp and AllocsPerOp. A
// benchmark appearing more than once (e.g. several packages or -count > 1)
// keeps its minimum of each — the least noisy estimate.
func parseBench(r io.Reader) (Baseline, error) {
	b := Baseline{NsPerOp: map[string]float64{}, BytesPerOp: map[string]float64{}, AllocsPerOp: map[string]float64{}}
	keepMin := func(m map[string]float64, name string, v float64) {
		if prev, ok := m[name]; !ok || v < prev {
			m[name] = v
		}
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return Baseline{}, fmt.Errorf("benchcmp: bad ns/op in %q: %v", line, err)
		}
		name := normalizeName(m[1])
		keepMin(b.NsPerOp, name, v)
		if mm := memColumns.FindStringSubmatch(line); mm != nil {
			bytes, err := strconv.ParseFloat(mm[1], 64)
			if err != nil {
				return Baseline{}, fmt.Errorf("benchcmp: bad B/op in %q: %v", line, err)
			}
			allocs, err := strconv.ParseFloat(mm[2], 64)
			if err != nil {
				return Baseline{}, fmt.Errorf("benchcmp: bad allocs/op in %q: %v", line, err)
			}
			keepMin(b.BytesPerOp, name, bytes)
			keepMin(b.AllocsPerOp, name, allocs)
		}
	}
	return b, sc.Err()
}

// overMemory compares one allocation figure (B/op or allocs/op) with its
// baseline: the ratio, 0 for a zero baseline, and whether the figure
// exceeds threshold times the baseline. A zero baseline is exceeded by
// any allocation: every multiple of it is zero.
func overMemory(cur, base, threshold float64) (ratio float64, over bool) {
	if base > 0 {
		ratio = cur / base
		return ratio, ratio > threshold
	}
	return 0, cur > 0
}

// compare builds the report for current vs base. A gated benchmark
// regresses when its ns/op ratio exceeds threshold, or its B/op or
// allocs/op ratio exceeds allocsThreshold (each only when both sides
// carry the figure — baselines recorded before -benchmem, or before
// bytes were stored, gate on what they have until re-recorded). A row
// whose baseline records 0 B/op or 0 allocs/op regresses on any
// allocation.
func compare(current, base Baseline, gate *regexp.Regexp, threshold, allocsThreshold float64) Report {
	names := make([]string, 0, len(current.NsPerOp))
	for name := range current.NsPerOp {
		names = append(names, name)
	}
	sort.Strings(names)
	rep := Report{Threshold: threshold, AllocsThreshold: allocsThreshold, Gate: gate.String()}
	for _, name := range names {
		res := Result{Name: name, NsPerOp: current.NsPerOp[name], Gated: gate.MatchString(name)}
		if b, ok := base.NsPerOp[name]; ok && b > 0 {
			res.Baseline = b
			res.Ratio = res.NsPerOp / b
			res.Regressed = res.Gated && res.Ratio > threshold
		}
		if v, ok := current.BytesPerOp[name]; ok {
			res.BytesPerOp = v
			if bv, ok := base.BytesPerOp[name]; ok {
				var over bool
				res.BaselineBytes = bv
				res.BytesRatio, over = overMemory(v, bv, allocsThreshold)
				res.Regressed = res.Regressed || res.Gated && over
			}
		}
		if v, ok := current.AllocsPerOp[name]; ok {
			res.AllocsPerOp = v
			if bv, ok := base.AllocsPerOp[name]; ok {
				var over bool
				res.BaselineAllocs = bv
				res.AllocsRatio, over = overMemory(v, bv, allocsThreshold)
				res.Regressed = res.Regressed || res.Gated && over
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
	fmt.Fprintf(w, "%-60s %14s %14s %8s %18s %12s\n", "benchmark", "ns/op", "baseline", "ratio", "B/op", "allocs/op")
	// memory renders a B/op or allocs/op cell: the figure and its ratio to
	// the baseline, "-" when neither side has one.
	memory := func(v, base, ratio float64) string {
		if v == 0 && base == 0 {
			return "-"
		}
		cell := fmt.Sprintf("%.0f", v)
		if ratio > 0 {
			cell += fmt.Sprintf(" (%.2fx)", ratio)
		}
		return cell
	}
	for _, r := range rep.Results {
		mark := " "
		if r.Regressed {
			mark = "!"
		} else if r.Gated {
			mark = "*"
		}
		bytes := memory(r.BytesPerOp, r.BaselineBytes, r.BytesRatio)
		allocs := memory(r.AllocsPerOp, r.BaselineAllocs, r.AllocsRatio)
		if r.Baseline > 0 {
			fmt.Fprintf(w, "%s %-58s %14.0f %14.0f %7.2fx %18s %12s\n", mark, r.Name, r.NsPerOp, r.Baseline, r.Ratio, bytes, allocs)
		} else {
			fmt.Fprintf(w, "%s %-58s %14.0f %14s %8s %18s %12s\n", mark, r.Name, r.NsPerOp, "(new)", "-", bytes, allocs)
		}
	}
	fmt.Fprintln(w, "(* gated benchmark, ! gated regression beyond threshold)")
}

// defaultGate names the benchmarks that may fail a comparison. Explore
// covers BenchmarkExplore and the small-model rows of
// BenchmarkExploreSmall, which catch a derivation whose setup costs more
// than it saves on the models each sweep derives.
const defaultGate = "TransientSeries|AssembleRows|AssemblyReuse|PerturbationSweep|Explore"

func run() error {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "baseline snapshot to compare against")
	update := flag.Bool("update", false, "rewrite the baseline from the parsed input instead of comparing")
	gateExpr := flag.String("gate", defaultGate, "regexp of benchmark names that may fail the run")
	threshold := flag.Float64("threshold", 1.2, "max allowed current/baseline ns per op ratio for gated benchmarks")
	allocsThreshold := flag.Float64("allocs-threshold", 1.25, "max allowed current/baseline B/op and allocs/op ratio for gated benchmarks (compared only when both sides were recorded with -benchmem)")
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
	current, err := parseBench(os.Stdin)
	if err != nil {
		return err
	}
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("benchcmp: interrupted: %w", cerr)
	}
	if len(current.NsPerOp) == 0 {
		return fmt.Errorf("benchcmp: no benchmark lines on stdin (pipe `go test -bench` output in)")
	}

	if *update {
		current.Note = *note
		data, err := json.MarshalIndent(current, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*baselinePath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("benchcmp: wrote %d benchmarks to %s\n", len(current.NsPerOp), *baselinePath)
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
	rep := compare(current, base, gate, *threshold, *allocsThreshold)
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
		return fmt.Errorf("benchcmp: gated benchmark regressed beyond %.2fx ns/op (or %.2fx B/op or allocs/op)", *threshold, *allocsThreshold)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
