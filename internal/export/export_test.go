package export

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/pepa"
	"repro/internal/pepa/derive"
)

func derived(t *testing.T) (*derive.StateSpace, *ctmc.Chain) {
	t.Helper()
	m := pepa.MustParse("P = (work, 2).P1; P1 = (rest, 1).P; P")
	ss, err := derive.Explore(m, derive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ss, ctmc.FromStateSpace(ss)
}

func TestGeneratorMatrixMarketRoundTrip(t *testing.T) {
	_, chain := derived(t)
	var buf bytes.Buffer
	if err := GeneratorMatrixMarket(&buf, chain); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "%%MatrixMarket matrix coordinate real general") {
		t.Errorf("header missing:\n%s", out)
	}
	n, entries, err := ParseMatrixMarket(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if n != chain.N {
		t.Errorf("n = %d, want %d", n, chain.N)
	}
	if len(entries) != chain.Q.NNZ() {
		t.Errorf("entries = %d, want %d", len(entries), chain.Q.NNZ())
	}
	for _, e := range entries {
		i, j, v := int(e[0]), int(e[1]), e[2]
		if got := chain.Q.At(i, j); math.Abs(got-v) > 1e-12 {
			t.Errorf("entry (%d,%d) = %g, matrix has %g", i, j, v, got)
		}
	}
}

func TestParseMatrixMarketErrors(t *testing.T) {
	cases := []string{
		"1 1 1\n1 1 2.0\n", // no header
		"%%MatrixMarket matrix array real general\n1 1 1\n1 1 1\n",      // wrong format
		"%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1\n", // non-square
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n", // count mismatch
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1\n", // out of bounds
		"%%MatrixMarket matrix coordinate real general\nnot numbers\n",  // bad size
	}
	for _, src := range cases {
		if _, _, err := ParseMatrixMarket(strings.NewReader(src)); err == nil {
			t.Errorf("accepted malformed input %q", src)
		}
	}
}

func TestTransitionsAndStatesCSV(t *testing.T) {
	ss, _ := derived(t)
	var buf bytes.Buffer
	if err := TransitionsCSV(&buf, ss); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "from,action,rate,to" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 1+ss.NumTransitions() {
		t.Errorf("rows = %d, want %d", len(lines)-1, ss.NumTransitions())
	}
	if !strings.Contains(buf.String(), "0,work,2,1") {
		t.Errorf("missing transition row:\n%s", buf.String())
	}
	buf.Reset()
	if err := StatesCSV(&buf, ss); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `0,"P"`) {
		t.Errorf("states csv:\n%s", buf.String())
	}
}

func TestSteadyStateCSV(t *testing.T) {
	ss, chain := derived(t)
	pi, err := chain.SteadyState(ctmc.SteadyStateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SteadyStateCSV(&buf, ss, pi); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "probability") {
		t.Errorf("csv:\n%s", buf.String())
	}
	if err := SteadyStateCSV(&buf, ss, pi[:1]); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestTimeSeriesTSV(t *testing.T) {
	var buf bytes.Buffer
	err := TimeSeriesTSV(&buf, []float64{0, 1}, []string{"a", "b"}, [][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	want := "t\ta\tb\n0\t1\t3\n1\t2\t4\n"
	if buf.String() != want {
		t.Errorf("tsv = %q, want %q", buf.String(), want)
	}
	if err := TimeSeriesTSV(&buf, []float64{0}, []string{"a"}, [][]float64{{1, 2}}); err == nil {
		t.Error("ragged series accepted")
	}
	if err := TimeSeriesTSV(&buf, []float64{0}, []string{"a", "b"}, [][]float64{{1}}); err == nil {
		t.Error("name/series count mismatch accepted")
	}
}

func TestPRISMTra(t *testing.T) {
	_, chain := derived(t)
	var buf bytes.Buffer
	if err := PRISMTra(&buf, chain); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "2 2" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "0 1 2" || lines[2] != "1 0 1" {
		t.Errorf("rows = %v", lines[1:])
	}
}

func TestPRISMSta(t *testing.T) {
	ss, _ := derived(t)
	var buf bytes.Buffer
	if err := PRISMSta(&buf, ss); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "(term)\n") {
		t.Errorf("header missing:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), `0:("P")`) {
		t.Errorf("state row missing:\n%s", buf.String())
	}
}

func TestPRISMLab(t *testing.T) {
	ss, _ := derived(t)
	var buf bytes.Buffer
	if err := PRISMLab(&buf, ss, map[string]string{"busy": "P1"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, `0="init" 1="busy"`) {
		t.Errorf("label header = %q", out)
	}
	if !strings.Contains(out, "0: 0\n") {
		t.Errorf("initial state not labelled:\n%s", out)
	}
	if !strings.Contains(out, "1: 1\n") {
		t.Errorf("busy state not labelled:\n%s", out)
	}
}

func TestCDFTSV(t *testing.T) {
	cdf := &ctmc.PassageCDF{Times: []float64{0, 1}, Probs: []float64{0, 0.5}}
	var buf bytes.Buffer
	if err := CDFTSV(&buf, cdf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1\t0.5") {
		t.Errorf("cdf tsv:\n%s", buf.String())
	}
}

// TestSteadyStateCSVMatchesFmt: each row is byte for byte what
// fmt.Fprintf(w, "%d,%q,%.12g\n", ...) writes, for terms that need
// escaping (quotes, backslashes, tabs, control bytes, non-ASCII text,
// invalid UTF-8) and for probabilities 0, -0, the smallest subnormal,
// NaN, ±Inf and ordinary values.
func TestSteadyStateCSVMatchesFmt(t *testing.T) {
	terms := []string{
		`P1 <a, b> Q`, `say "hi"`, `back\slash`, "tab\there", "bell\a\x00\x1f\x7f",
		"Zustände ✓ 日本", "bad\xffutf8\xc3", "", "P[3]",
	}
	pis := []float64{0, math.Copysign(0, -1), 5e-324, math.NaN(), math.Inf(1), math.Inf(-1), 0.25, 1.0 / 3, 123456789.123456789}
	ss := &derive.StateSpace{}
	var pi []float64
	for _, term := range terms {
		for _, p := range pis {
			ss.States = append(ss.States, term)
			pi = append(pi, p)
		}
	}
	var got, want bytes.Buffer
	if err := SteadyStateCSV(&got, ss, pi); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&want, "state,term,probability")
	for s, term := range ss.States {
		fmt.Fprintf(&want, "%d,%q,%.12g\n", s, term, pi[s])
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("SteadyStateCSV differs from the fmt rendering:\n--- got ---\n%s\n--- want ---\n%s", got.Bytes(), want.Bytes())
	}
}
