package gpepa_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/goldentest"
	"repro/internal/gpepa"
)

// fluidDigestPath pins the fluid solvers' output bit for bit. Regenerate
// with `go test ./internal/gpepa -run TestFluidDigests -update` only after
// an intended change to fluid output.
const fluidDigestPath = "testdata/goldens/fluid_digests.txt"

// nestedGPEPAModel has five groups under nested synchronised and
// interleaved cooperations. serve and reply have rate zero at X0 (only
// P1, P2, Q1, S1 and W1 offer them, and none is seeded), and req reaches
// Ws, which does not offer it, with a zero share.
const nestedGPEPAModel = `
ra = 1.0; rb = 0.6; rc = 2.5; rd = 0.8; re = 1.0; rf = 0.7; rg = 1.9; rh = 1.0;

P  = (req, ra).P1 + (think, rb).P;
P1 = (serve, rc).P2;
P2 = (reply, rd).P;
Q  = (req, re).Q1;
Q1 = (reply, rf).Q + (serve, rg).Q;
R  = (req, rh).R1;
R1 = (log, rd).R;
S  = (req, rg).S + (log, rb).S1;
S1 = (reply, re).S;
W  = (serve, rc).W1;
W1 = (reply, ra).W + (log, rf).W;

((Ps{P[30]} <req> (Qs{Q[5]} || Rs{R[10]})) || Ss{S[8]}) <serve> Ws{W[4]}
`

// fluidDigest hashes the Float64bits of every value in order.
func fluidDigest(vals ...[]float64) string {
	h := sha256.New()
	var buf []byte
	for _, v := range vals {
		buf = binary.BigEndian.AppendUint64(buf, uint64(len(v)))
		for _, x := range v {
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(x))
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// TestFluidDigests is the bit-level oracle for the fluid solvers on the
// Fig 5 client/server model, its power companion and nestedGPEPAModel:
// the derivative at X0 and at probe vectors, Solve trajectories with every
// action's ThroughputSeries, ScalabilitySweep throughputs and finals,
// SteadyState, both accumulated rewards, and one SSA trajectory. The
// nested model's last probe makes an interleaving cooperation reached
// with a nonzero share see children whose rates cancel to zero.
func TestFluidDigests(t *testing.T) {
	type sweep struct {
		group, component string
		counts           []float64
	}
	cases := []struct {
		name, src string
		horizon   float64
		sweep     sweep
		state     gpepa.LocalState
	}{
		{"fig5", core.ClientServerGPEPAModel, 50, sweep{"Clients", "Client", []float64{10, 60, 100, 250}},
			gpepa.LocalState{Group: "Servers", State: "Server_log"}},
		{"fig5-power", core.ClientServerPowerGPEPAModel, 40, sweep{"Servers", "Server", []float64{4, 12, 30}},
			gpepa.LocalState{Group: "Servers", State: "Server"}},
		{"nested", nestedGPEPAModel, 30, sweep{"Ps", "P", []float64{5, 30, 90}},
			gpepa.LocalState{Group: "Qs", State: "Q1"}},
	}
	var got strings.Builder
	for _, c := range cases {
		m := gpepa.MustParse(c.src)
		fs, err := gpepa.Compile(m)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}

		probes := [][]float64{fs.X0}
		signed := make([]float64, len(fs.X0))
		for i := range signed {
			signed[i] = float64((i*7)%5) - 1.5 + fs.X0[i]/3
		}
		probes = append(probes, signed)
		if c.name == "nested" {
			// req: Ps offers -1, Qs || Rs offers 1 + (-1) = 0, Ss offers 15.2.
			cancel := append([]float64(nil), fs.X0...)
			for ls, v := range map[gpepa.LocalState]float64{
				{Group: "Ps", State: "P"}: -1, {Group: "Qs", State: "Q"}: 1, {Group: "Rs", State: "R"}: -1,
			} {
				cancel[fs.Index[ls]] = v
			}
			probes = append(probes, cancel)
		}
		for i, x := range probes {
			dst := make([]float64, len(x))
			fs.Derivative(x, dst)
			tp := make([]float64, len(fs.Actions))
			for a, action := range fs.Actions {
				tp[a] = fs.ActionThroughput(action, x)
			}
			fmt.Fprintf(&got, "%s derivative probe=%d %s\n", c.name, i, fluidDigest(dst, tp))
		}

		res, err := fs.Solve(c.horizon, 60, gpepa.SolveOptions{})
		if err != nil {
			t.Fatalf("%s: solve: %v", c.name, err)
		}
		rows := append([][]float64{res.Times}, res.X...)
		fmt.Fprintf(&got, "%s solve %s\n", c.name, fluidDigest(rows...))
		for _, action := range fs.Actions {
			acc := res.AccumulatedActionReward(action)
			fmt.Fprintf(&got, "%s throughput %s %s\n", c.name, action, fluidDigest(res.ThroughputSeries(action), []float64{acc}))
		}
		reward, err := res.AccumulatedStateReward(map[gpepa.LocalState]float64{c.state: 2.5})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&got, "%s state-reward %s\n", c.name, fluidDigest([]float64{reward}))

		eq, at, err := fs.SteadyState(gpepa.FluidSteadyOptions{})
		if err != nil {
			t.Fatalf("%s: steady state: %v", c.name, err)
		}
		fmt.Fprintf(&got, "%s steady %s\n", c.name, fluidDigest(eq, []float64{at}))

		for _, action := range fs.Actions {
			pts, err := gpepa.ScalabilitySweep(m, c.sweep.group, c.sweep.component, c.sweep.counts, c.horizon, action)
			if err != nil {
				t.Fatalf("%s: sweep: %v", c.name, err)
			}
			vals := make([][]float64, 0, 2*len(pts))
			for _, p := range pts {
				vals = append(vals, []float64{p.Count, p.Throughput}, p.Final)
			}
			fmt.Fprintf(&got, "%s sweep %s %s\n", c.name, action, fluidDigest(vals...))
		}

		sim, err := fs.Simulate(c.horizon/5, 20, 11)
		if err != nil {
			t.Fatalf("%s: simulate: %v", c.name, err)
		}
		fmt.Fprintf(&got, "%s simulate jumps=%d %s\n", c.name, sim.Jumps, fluidDigest(append([][]float64{sim.Times}, sim.X...)...))
	}
	goldentest.Check(t, fluidDigestPath, got.String())
}
