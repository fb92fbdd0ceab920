package sim_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/goldentest"
	"repro/internal/pepa"
	"repro/internal/pepa/sim"
)

// digestPath pins simulated trajectories bit for bit. Regenerate with
// `go test ./internal/pepa/sim -run TestTrajectoryDigests -update` only
// after an intended change to simulation output.
const digestPath = "testdata/goldens/trajectory_digests.txt"

// trajectoryModels lists the simulated models: the PEPA tool examples,
// hand-written shapes (hiding, composite constants folded at the top and
// as an operand, inline prefix and choice leaves, a deadlock), and
// conformance seeds 1–20.
func trajectoryModels(t *testing.T) []struct {
	name  string
	model *pepa.Model
} {
	t.Helper()
	const comps = `r = 1.5; s = 0.5; u = 2;
A = (a, r).A1 + (b, s).A; A1 = (c, u).A;
B = (a, T).B1; B1 = (d, s).B;
C = (b, u).C1; C1 = (e, r).C + (a, s).C;
`
	srcs := []struct{ name, src string }{
		{"simple", core.SimplePEPAModel},
		{"active-badge", core.ActiveBadgeModel},
		{"alternating-bit", core.AlternatingBitModel},
		{"pclan4", core.PCLAN4Model},
		{"hide-coop", comps + "(A <a> B)/{a} <b> C"},
		{"folded-system", comps + "Sys = (A <a> B) <b> C; Sys"},
		{"folded-operand", comps + "Pair = A <a> B; Pair <a> C"},
		{"inline-leaves", comps + "((a, r).A1 + (b, s).C) <a> (a, T).(d, u).B"},
		{"deadlock", "P = (a, 1).P1; P1 = (b, 2).P2; P2 = (c, 1).P1 + (d, 3).Stop; Stop = (e, 1).Stop; Q = (a, T).Q; P <a,e> Q"},
	}
	var out []struct {
		name  string
		model *pepa.Model
	}
	for _, s := range srcs {
		m, err := pepa.Parse(s.src)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		out = append(out, struct {
			name  string
			model *pepa.Model
		}{s.name, m})
	}
	for seed := uint64(1); seed <= 20; seed++ {
		g, err := conformance.Generate(seed, conformance.GenOptions{AllowPassive: true})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, struct {
			name  string
			model *pepa.Model
		}{fmt.Sprintf("conformance/seed=%d", seed), g.Model})
	}
	return out
}

// digestResult hashes everything a trajectory reports: event count, time,
// deadlock flag, final state, every action count and every state's
// sojourn time bits, in sorted key order, plus the error text.
func digestResult(res *sim.Result, err error) string {
	h := sha256.New()
	var buf []byte
	num := func(v uint64) { buf = binary.BigEndian.AppendUint64(buf, v) }
	str := func(s string) { num(uint64(len(s))); buf = append(buf, s...) }
	if err != nil {
		str(err.Error())
	}
	num(uint64(res.Events))
	num(math.Float64bits(res.Time))
	if res.Deadlocked {
		num(1)
	} else {
		num(0)
	}
	str(res.FinalState)
	actions := make([]string, 0, len(res.ActionCounts))
	for a := range res.ActionCounts {
		actions = append(actions, a)
	}
	sort.Strings(actions)
	for _, a := range actions {
		str(a)
		num(uint64(res.ActionCounts[a]))
	}
	states := make([]string, 0, len(res.StateTime))
	for s := range res.StateTime {
		states = append(states, s)
	}
	sort.Strings(states)
	for _, s := range states {
		str(s)
		num(math.Float64bits(res.StateTime[s]))
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// TestTrajectoryDigests is the bit-level oracle for simulation: each
// model's trajectories over several seeds, one of them cut short by the
// event budget, must hash to the recorded digests. The event stream
// depends on every state's transition order and rate bits, so this also
// pins the derivation the simulator runs on.
func TestTrajectoryDigests(t *testing.T) {
	var got strings.Builder
	for _, tm := range trajectoryModels(t) {
		fmt.Fprintf(&got, "%s", tm.name)
		for _, opt := range []sim.Options{
			{Horizon: 25, Seed: 1},
			{Horizon: 25, Seed: 2},
			{Horizon: 25, Seed: 42},
			{Horizon: 1e6, Seed: 7, MaxEvents: 150},
		} {
			res, err := sim.Run(tm.model, opt)
			if res == nil {
				t.Fatalf("%s seed %d: %v", tm.name, opt.Seed, err)
			}
			fmt.Fprintf(&got, " %d:%s", opt.Seed, digestResult(res, err))
		}
		got.WriteByte('\n')
	}
	goldentest.Check(t, digestPath, got.String())
}
