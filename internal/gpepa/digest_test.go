package gpepa_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/goldentest"
	"repro/internal/gpepa"
)

// digestPath pins compiled fluid systems. Regenerate with
// `go test ./internal/gpepa -run TestCompileDigests -update` only after an
// intended change to compilation output.
const digestPath = "testdata/goldens/compile_digests.txt"

// digestSystem hashes everything Compile decides: the variables in order,
// each group's local transitions with their rate bits, the initial
// populations and the action set.
func digestSystem(fs *gpepa.FluidSystem) string {
	h := sha256.New()
	var buf []byte
	num := func(v uint64) { buf = binary.BigEndian.AppendUint64(buf, v) }
	str := func(s string) { num(uint64(len(s))); buf = append(buf, s...) }
	num(uint64(len(fs.Vars)))
	for _, v := range fs.Vars {
		str(v.Group)
		str(v.State)
	}
	for _, g := range fs.Model.Groups() {
		actions, rates, from, to := gpepa.LocalTransitions(fs, g.Label)
		str(g.Label)
		num(uint64(len(actions)))
		for i := range actions {
			str(actions[i])
			num(math.Float64bits(rates[i]))
			num(uint64(from[i]))
			num(uint64(to[i]))
		}
	}
	for _, x := range fs.X0 {
		num(math.Float64bits(x))
	}
	num(uint64(len(fs.Actions)))
	for _, a := range fs.Actions {
		str(a)
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// TestCompileDigests is the bit-level oracle for fluid compilation over
// the Fig 5 client/server model, its power companion and the conformance
// fluid seeds 1–20 (grouped and single-group).
func TestCompileDigests(t *testing.T) {
	var got strings.Builder
	add := func(name string, m *gpepa.Model) {
		fs, err := gpepa.Compile(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&got, "%s %s\n", name, digestSystem(fs))
	}
	add("fig5", gpepa.MustParse(core.ClientServerGPEPAModel))
	add("fig5-power", gpepa.MustParse(core.ClientServerPowerGPEPAModel))
	for seed := uint64(1); seed <= 20; seed++ {
		gm, err := conformance.GenerateGrouped(seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("grouped/seed=%d", seed), gm)
		single, _, err := conformance.GenerateSingleGroup(seed, 10)
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("single/seed=%d", seed), single)
	}
	goldentest.Check(t, digestPath, got.String())
}
