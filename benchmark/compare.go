package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// verdict is -compare's judgement of one (workload, metric) pair.
type verdict string

const (
	same   verdict = "same"
	better verdict = "better"
	worse  verdict = "worse"
	// unresolved: A's run-to-run spread is wider than the bound and B
	// neither beats nor loses to A on every run, so neither "same" nor
	// "worse" is shown.
	unresolved verdict = "unresolved"
	// notGated marks the reported latency and throughput rows, which have
	// no bound; a claim about them goes through -claim's pair rule.
	notGated verdict = "not-gated"
)

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(path string) ([]bound, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

// judge compares B's runs of one metric against A's. The bound is the
// share of A's median by which B may be worse. Only A's spread can leave
// the verdict unresolved: a B that is both slower and noisier is still
// worse.
func judge(a, b []float64, limit float64, lowerIsBetter bool) verdict {
	medA := median(a)
	change := (median(b) - medA) / math.Abs(medA) // positive: B is worse
	if !lowerIsBetter {
		change = -change
	}
	if relSpread(a) > limit && !beatsEveryRun(a, b, lowerIsBetter) && !beatsEveryRun(b, a, lowerIsBetter) {
		return unresolved
	}
	switch {
	case change > limit:
		return worse
	case -change > limit:
		return better
	}
	return same
}

// beatsEveryRun reports whether every run of y is better than every run
// of x.
func beatsEveryRun(x, y []float64, lowerIsBetter bool) bool {
	sx, sy := sorted(x), sorted(y)
	if lowerIsBetter {
		return sy[len(sy)-1] < sx[0]
	}
	return sy[0] > sx[len(sx)-1]
}

// judgeErrors applies the error-rate rule: any increase is worse.
func judgeErrors(a, b []float64) verdict {
	switch ma, mb := median(a), median(b); {
	case mb > ma:
		return worse
	case mb < ma:
		return better
	}
	return same
}

// claimMet applies the pair rule to a claimed gain: at least ten pairs of
// alternating A and B runs, B better in at least nine tenths of them
// (ties count for neither side), and the medians apart by more than the
// interquartile range of A's runs.
func claimMet(a, b []float64, lowerIsBetter bool) (bool, string) {
	pairs := min(len(a), len(b))
	if pairs < 10 {
		return false, fmt.Sprintf("%d pairs, the rule needs at least 10", pairs)
	}
	wins := 0
	for i := 0; i < pairs; i++ {
		if (lowerIsBetter && b[i] < a[i]) || (!lowerIsBetter && b[i] > a[i]) {
			wins++
		}
	}
	q1, q3 := quartiles(a)
	gap := median(b) - median(a)
	if lowerIsBetter {
		gap = -gap
	}
	why := fmt.Sprintf("B wins %d/%d pairs; medians differ by %.4g in B's favour against A's interquartile range %.4g", wins, pairs, gap, q3-q1)
	return wins*10 >= pairs*9 && gap > q3-q1, why
}

// runCompare implements -compare A.json... -- B.json...: for every
// workload and end-to-end metric it prints both sides' medians and
// quartiles and a verdict, and exits non-zero on any "worse" (or an
// unmet -claim).
func runCompare(args []string, benchPath, claim string, stdout, stderr io.Writer) int {
	sep := -1
	for i, a := range args {
		if a == "--" {
			sep = i
			break
		}
	}
	if sep <= 0 || sep == len(args)-1 {
		fmt.Fprintln(stderr, "benchmark: usage: -compare A.json... -- B.json...")
		return 2
	}
	bounds, err := readBounds(benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	sideA, err := collect(args[:sep])
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	sideB, err := collect(args[sep+1:])
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return report(sideA, sideB, bounds, claim, stdout, stderr)
}

// errorRateKey carries each run's failed/attempted share through collect.
const errorRateKey = "error_rate"

// collect reads untraced results into workload -> metric -> per-run
// values, in file order so that A's and B's runs pair up by index.
func collect(paths []string) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	for _, p := range paths {
		rs, err := readResults(p)
		if err != nil {
			return nil, err
		}
		for _, r := range rs {
			if r.Traced {
				continue
			}
			m := out[r.Workload]
			if m == nil {
				m = map[string][]float64{}
				out[r.Workload] = m
			}
			for k, v := range r.Metrics {
				m[k] = append(m[k], v.Value)
			}
			for _, u := range ungated {
				if v, ok := r.Extra[u.Name]; ok {
					m[u.Name] = append(m[u.Name], v.Value)
				}
			}
			m[errorRateKey] = append(m[errorRateKey], float64(r.Failed)/float64(max(r.Attempted, 1)))
		}
	}
	return out, nil
}

func report(sideA, sideB map[string]map[string][]float64, bounds []bound, claim string, stdout, stderr io.Writer) int {
	fmt.Fprintf(stdout, "%-7s %-16s %-32s %-32s %8s %6s  %s\n", "load", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound", "verdict")
	failed := false
	for _, w := range workloads() {
		a, b := sideA[w.name], sideB[w.name]
		if a == nil || b == nil {
			continue
		}
		rows := append([]bound(nil), bounds...)
		rows = append(rows, bound{Name: errorRateKey, Unit: "ratio", Better: "lower"})
		rows = append(rows, ungated...)
		for i, bd := range rows {
			va, vb := a[bd.Name], b[bd.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			var v verdict
			limit := "-"
			switch {
			case i < len(bounds):
				v = judge(va, vb, bd.Bound, bd.Better == "lower")
				limit = fmt.Sprintf("%.0f%%", 100*bd.Bound)
			case bd.Name == errorRateKey:
				v, limit = judgeErrors(va, vb), "any"
			default:
				v = notGated
			}
			change := "-"
			if ma := median(va); ma != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(median(vb)-ma)/math.Abs(ma))
			}
			fmt.Fprintf(stdout, "%-7s %-16s %-32s %-32s %8s %6s  %s\n", w.name, bd.Name, spreadCell(va), spreadCell(vb), change, limit, v)
			failed = failed || v == worse
		}
	}
	if claim != "" {
		metricName, wl, ok := strings.Cut(claim, "@")
		va, vb := sideA[wl][metricName], sideB[wl][metricName]
		lower := true
		known := false
		for _, bd := range append(append([]bound(nil), bounds...), ungated...) {
			if bd.Name == metricName {
				lower, known = bd.Better == "lower", true
			}
		}
		if !ok || !known || len(va) == 0 || len(vb) == 0 {
			fmt.Fprintf(stderr, "benchmark: -claim %q names no reported metric@workload present on both sides\n", claim)
			return 2
		}
		met, why := claimMet(va, vb, lower)
		fmt.Fprintf(stdout, "claim %s: met=%v (%s)\n", claim, met, why)
		failed = failed || !met
	}
	if failed {
		return 1
	}
	return 0
}

func spreadCell(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", median(xs), q1, q3)
}
