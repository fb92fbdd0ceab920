package derive_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/goldentest"
	"repro/internal/pepa"
	"repro/internal/pepa/derive"
	"repro/internal/robustness"
)

// digestPath holds one line per model: its name, then the digest of its
// plain and of its aggregated state space. Regenerate with
// `go test -run TestExploreDigests -update` after an intended change to
// derivation output.
const digestPath = "testdata/goldens/explore_digests.txt"

// oracleModel is one model the digest oracle derives.
type oracleModel struct {
	name  string
	model *pepa.Model
}

// oracleModels lists the models whose state spaces the digests pin: the
// PEPA tool examples, every Table I machine model (absorbing and cyclic),
// the 10-station PC LAN, conformance seeds 1–300, and the shape models.
func oracleModels(t *testing.T) []oracleModel {
	t.Helper()
	var out []oracleModel
	for _, ex := range []struct{ name, src string }{
		{"simple", core.SimplePEPAModel},
		{"active-badge", core.ActiveBadgeModel},
		{"alternating-bit", core.AlternatingBitModel},
		{"pclan4", core.PCLAN4Model},
		{"pclan10", pclanSource(10)},
	} {
		m, err := pepa.Parse(ex.src)
		if err != nil {
			t.Fatalf("%s: %v", ex.name, err)
		}
		out = append(out, oracleModel{ex.name, m})
	}
	study := robustness.NewStudy()
	for _, mapping := range []string{robustness.MappingA, robustness.MappingB} {
		for j := 0; j < robustness.NumMachines; j++ {
			for _, cyclic := range []bool{false, true} {
				m, err := study.MachineModel(mapping, j, cyclic)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, oracleModel{fmt.Sprintf("tableI/%s/M%d/cyclic=%t", mapping, j+1, cyclic), m})
			}
		}
	}
	for seed := uint64(1); seed <= 300; seed++ {
		g, err := conformance.Generate(seed, conformance.GenOptions{AllowPassive: true})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, oracleModel{fmt.Sprintf("conformance/seed=%d", seed), g.Model})
	}
	for _, sm := range shapeModels {
		m, err := pepa.Parse(sm.src)
		if err != nil {
			t.Fatalf("%s: %v", sm.name, err)
		}
		if res := pepa.Check(m); res.Err() != nil {
			t.Fatalf("%s: %v", sm.name, res.Err())
		}
		out = append(out, oracleModel{"shape/" + sm.name, m})
	}
	return out
}

// shapeComponents defines the sequential components the shape models
// compose: toggles with private and shared actions, a passive partner,
// and a three-way choice.
const shapeComponents = `r = 1.5; s = 0.5; u = 2;
A = (a, r).A1 + (b, s).A; A1 = (c, u).A;
B = (a, T).B1; B1 = (d, s).B;
C = (b, u).C1; C1 = (e, r).C + (a, s).C;
D = (a, 2 * r).D1 + (f, 1).D; D1 = (b, T).D;
`

// shapeModels cover the process shapes the generated models never
// produce: hiding over a leaf, a cooperation and a constant, composite
// constants folded at the top and as chain operands, inline prefix and
// choice terms as leaves, and aggregated chains whose operands mix
// leaves with compound terms.
var shapeModels = []struct{ name, src string }{
	{"hide-leaf", shapeComponents + "(A/{a}) <b> C"},
	{"hide-coop", shapeComponents + "(A <a> B)/{a} <b> C"},
	{"hide-coop-nested", shapeComponents + "((A <a> B)/{c} <b> C)/{b,e}"},
	{"hidden-constant", shapeComponents + "H = (A <a> B)/{a}; H <b> C"},
	{"hide-over-constant", shapeComponents + "H = A <a> B; H/{a,d}"},
	{"folded-system", shapeComponents + "Sys = A <a> B; Sys"},
	{"folded-system-chain", shapeComponents + "Sys = S2; S2 = (A <a> B) <b> C; Sys"},
	{"folded-nested", shapeComponents + "Sys = Inner <b> C; Inner = A <a> B; Sys"},
	{"folded-operand-same-set", shapeComponents + "Pair = A <a> B; Pair <a> C"},
	{"folded-operand-same-set-twice", shapeComponents + "Pair = A <a> B; Pair <a> C <a> Pair"},
	{"folded-operand-other-set", shapeComponents + "Pair = A <a> B; Pair <b> C"},
	{"folded-operand-twice", shapeComponents + "Pair = A <a> B; Pair || Pair"},
	{"folded-operand-replicas", shapeComponents + "Pair = A <a> B; (Pair || C) || (Pair || C)"},
	{"inline-prefix-leaf", shapeComponents + "(a, r).(c, u).A <a> B"},
	{"inline-choice-leaf", shapeComponents + "((a, r).A1 + (b, s).C + (a, u).A) <a> B"},
	{"choice-leaf-right", shapeComponents + "B <a> ((a, r).A1 + (f, s).C)"},
	{"mixed-chain", shapeComponents + "(A <a> B) <b> C <b> (D <a> B)"},
	{"mixed-chain-replicas", shapeComponents + "(A <a> B) || C || (A <a> B) || C"},
	{"right-nested", shapeComponents + "A <a> (B <a> (D <b> C))"},
	{"mixed-chain-hide", shapeComponents + "(A <a> B)/{d} || C || A/{a} || (a, r).A1"},
}

// digestSpace hashes everything Explore decides: the state count, each
// state's canonical string (when withStates) and thereby the numbering,
// every activity's action, rate bits, endpoints and rate source, in
// order, and the action types. A reordered transition list or a 1-ulp
// rate change alters it.
func digestSpace(t *testing.T, name string, ss *derive.StateSpace, withStates bool) string {
	t.Helper()
	if len(ss.Index) != len(ss.States) {
		t.Errorf("%s: index has %d keys for %d states", name, len(ss.Index), len(ss.States))
	}
	for id, s := range ss.States {
		if ss.Index[s] != id {
			t.Errorf("%s: index maps state %d (%q) to %d", name, id, s, ss.Index[s])
		}
	}
	h := sha256.New()
	var buf []byte
	num := func(v uint64) { buf = binary.BigEndian.AppendUint64(buf, v) }
	str := func(s string) { num(uint64(len(s))); buf = append(buf, s...) }
	flush := func() { h.Write(buf); buf = buf[:0] }
	num(uint64(len(ss.States)))
	if withStates {
		for _, s := range ss.States {
			str(s)
		}
	}
	for _, acts := range ss.Trans {
		num(uint64(len(acts)))
		for _, a := range acts {
			str(a.Action)
			num(math.Float64bits(a.Rate))
			num(uint64(a.From))
			num(uint64(a.To))
			str(a.Src.Const)
			if a.Src.Fixed {
				num(1)
			} else {
				num(0)
			}
		}
		flush()
	}
	num(uint64(len(ss.ActionTypes)))
	for _, a := range ss.ActionTypes {
		str(a)
	}
	flush()
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// TestExploreDigests is the bit-level oracle for derivation: every
// model's state space, plain and aggregated, must hash to the digest
// recorded in testdata. End-to-end checks (goldens, the benchmark's
// reference values at 1e-9) cannot see a reordered transition list or a
// 1-ulp rate change; this can. The aggregated digest leaves out state
// strings, whose canonical operand order may render differently while
// numbering, transitions and rates stay fixed.
func TestExploreDigests(t *testing.T) {
	var got strings.Builder
	for _, om := range oracleModels(t) {
		plain, err := derive.Explore(om.model, derive.Options{})
		if err != nil {
			t.Fatalf("%s: %v", om.name, err)
		}
		agg, err := derive.Explore(om.model, derive.Options{Aggregate: true})
		if err != nil {
			t.Fatalf("%s (aggregate): %v", om.name, err)
		}
		fmt.Fprintf(&got, "%s plain=%s aggregate=%s\n", om.name,
			digestSpace(t, om.name, plain, true), digestSpace(t, om.name, agg, false))
	}
	if *goldentest.Update {
		goldentest.Check(t, digestPath, got.String())
		return
	}
	f, err := os.Open(digestPath)
	if err != nil {
		t.Fatalf("digests missing (run with -update): %v", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, _, _ := strings.Cut(sc.Text(), " ")
		want[name] = sc.Text()
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(got.String(), "\n"), "\n")
	if len(lines) != len(want) {
		t.Errorf("derived %d models, %s records %d", len(lines), digestPath, len(want))
	}
	for _, line := range lines {
		name, _, _ := strings.Cut(line, " ")
		if want[name] != line {
			t.Errorf("state space drifted from the recorded digest:\n got  %s\n want %s", line, want[name])
		}
	}
}
