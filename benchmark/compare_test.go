package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudgeVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		name  string
		a, b  []float64
		lower bool
		want  verdict
	}{
		{"within bound", steady, []float64{104, 105, 103, 104, 104}, true, same},
		{"worse beyond bound", steady, []float64{115, 116, 114, 115, 115}, true, worse},
		{"better beyond bound", steady, []float64{80, 81, 79, 80, 80}, true, better},
		{"higher is better, drop is worse", steady, []float64{80, 81, 79, 80, 80}, false, worse},
		{"higher is better, rise is better", steady, []float64{120, 121, 119, 120, 120}, false, better},
		{"A's spread wider than bound", []float64{70, 100, 130, 90, 110}, []float64{100, 101, 99, 100, 100}, true, unresolved},
		{"wide spread, but B wins every run", []float64{150, 180, 210, 170, 190}, []float64{100, 101, 99, 100, 100}, true, better},
		{"wide spread, but B loses every run", []float64{70, 100, 130, 90, 110}, []float64{150, 151, 149, 150, 150}, true, worse},
		{"B slower and noisier", []float64{100, 101, 99}, []float64{150, 200, 250}, true, worse},
		{"B noisier, same median", steady, []float64{80, 100, 120, 90, 110}, true, same},
	} {
		if got := judge(tc.a, tc.b, 0.10, tc.lower); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
	if got := judgeErrors([]float64{0, 0, 0}, []float64{0, 0.001, 0.001}); got != worse {
		t.Errorf("any error-rate increase: got %s, want worse", got)
	}
	if got := judgeErrors([]float64{0, 0, 0}, []float64{0, 0, 0}); got != same {
		t.Errorf("equal error rates: got %s, want same", got)
	}
}

func TestClaimPairRule(t *testing.T) {
	parent := []float64{100, 102, 98, 101, 99, 100, 103, 97, 100, 101}
	faster := []float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 90}
	if ok, why := claimMet(parent, faster, true); !ok {
		t.Errorf("clear 10/10 gain rejected: %s", why)
	}
	if ok, _ := claimMet(parent[:9], faster[:9], true); ok {
		t.Error("claim accepted on fewer than 10 pairs")
	}
	twoLosses := append([]float64(nil), faster...)
	twoLosses[0], twoLosses[1] = 120, 120
	if ok, _ := claimMet(parent, twoLosses, true); ok {
		t.Error("claim accepted with B winning only 8/10 pairs")
	}
	// B wins every pair by a hair, but the medians sit inside A's spread.
	hair := make([]float64, len(parent))
	for i, v := range parent {
		hair[i] = v - 0.5
	}
	if ok, _ := claimMet(parent, hair, true); ok {
		t.Error("claim accepted though the medians differ by less than A's interquartile range")
	}
}

func TestCompareCommandExitsNonZeroOnWorse(t *testing.T) {
	dir := t.TempDir()
	// Each run's alloc_mb_per_op is v and its op_p50_ms is 3v, so a
	// gated and an ungated metric move together.
	write := func(name string, v float64, failed int) string {
		t.Helper()
		res := &result{Workload: "solve", Attempted: 100, Failed: failed, Metrics: map[string]metric{}, Extra: map[string]metric{}}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{1, m.unit}
		}
		res.Metrics["alloc_mb_per_op"] = metric{v, "MB"}
		res.Extra["op_p50_ms"] = metric{3 * v, "ms"}
		path := filepath.Join(dir, name)
		if err := writeResults(path, []*result{res}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := []string{write("a1", 100, 0), write("a2", 101, 0), write("a3", 99, 0)}
	for _, tc := range []struct {
		name    string
		b       []string
		code    int
		metric  string
		verdict verdict
	}{
		{"same", []string{write("s1", 100, 0), write("s2", 102, 0), write("s3", 99, 0)}, 0, "alloc_mb_per_op", same},
		{"slower", []string{write("w1", 130, 0), write("w2", 131, 0), write("w3", 129, 0)}, 1, "alloc_mb_per_op", worse},
		{"failing", []string{write("f1", 100, 1), write("f2", 100, 1), write("f3", 100, 0)}, 1, errorRateKey, worse},
		{"latency is shown, not judged", []string{write("l1", 100, 0), write("l2", 102, 0), write("l3", 99, 0)}, 0, "op_p50_ms", notGated},
	} {
		var out, errb bytes.Buffer
		args := append(append(append([]string(nil), a...), "--"), tc.b...)
		code := runCompare(args, filepath.Join("..", "BENCHMARK.json"), "", &out, &errb)
		if code != tc.code {
			t.Errorf("%s: exit %d, want %d\n%s%s", tc.name, code, tc.code, out.String(), errb.String())
		}
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			found = found || (len(f) > 2 && f[0] == "solve" && f[1] == tc.metric && f[len(f)-1] == string(tc.verdict))
		}
		if !found {
			t.Errorf("%s: report has no %s row judged %s:\n%s", tc.name, tc.metric, tc.verdict, out.String())
		}
	}

	// A claim on the ungated latency goes through the pair rule, which
	// three pairs cannot meet.
	var out, errb bytes.Buffer
	args := append(append(append([]string(nil), a...), "--"), write("c1", 50, 0), write("c2", 51, 0), write("c3", 49, 0))
	if code := runCompare(args, filepath.Join("..", "BENCHMARK.json"), "op_p50_ms@solve", &out, &errb); code != 1 || !strings.Contains(out.String(), "claim op_p50_ms@solve: met=false") {
		t.Errorf("claim on 3 pairs: exit %d, want 1 with met=false\n%s%s", code, out.String(), errb.String())
	}
}
