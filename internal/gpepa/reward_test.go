package gpepa

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestAccumulatedActionReward(t *testing.T) {
	fs := compileClientServer(t)
	res, err := fs.Solve(100, 200, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	total := res.AccumulatedActionReward("request")
	// Request throughput starts at 40 (server-bound) and relaxes to the
	// equilibrium; the integral over 100 time units must be positive and
	// below the 40/unit upper bound.
	if total <= 0 || total > 40*100 {
		t.Errorf("accumulated reward = %g", total)
	}
	// Longer horizon accumulates more reward.
	res2, err := fs.Solve(200, 400, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res2.AccumulatedActionReward("request"); got <= total {
		t.Errorf("reward not increasing with horizon: %g then %g", total, got)
	}
}

func TestAccumulatedRewardMatchesEquilibriumRate(t *testing.T) {
	// Once equilibrated, reward accrues at equilibrium throughput; compare
	// the increment over [T, 2T] with rate*T.
	fs := compileClientServer(t)
	resA, err := fs.Solve(300, 600, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	resB, err := fs.Solve(600, 1200, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	increment := resB.AccumulatedActionReward("request") - resA.AccumulatedActionReward("request")
	eqRate := fs.ActionThroughput("request", resB.Final())
	if math.Abs(increment-eqRate*300)/(eqRate*300) > 0.01 {
		t.Errorf("increment %g vs equilibrium rate*T %g", increment, eqRate*300)
	}
}

func TestAccumulatedStateReward(t *testing.T) {
	fs := compileClientServer(t)
	res, err := fs.Solve(50, 100, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// "Power draw": 1 unit per busy (logging) server per time unit.
	reward, err := res.AccumulatedStateReward(map[LocalState]float64{
		{Group: "Servers", State: "Server_log"}: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if reward <= 0 || reward > 10*50 {
		t.Errorf("state reward = %g", reward)
	}
	if _, err := res.AccumulatedStateReward(map[LocalState]float64{{Group: "X", State: "Y"}: 1}); err == nil {
		t.Error("unknown local state accepted")
	}
}

// TestAccumulatedStateRewardOrderIndependent: the weighted populations are
// summed in variable-index order, not in the weight map's iteration
// order, so a reward with several weights has one value — the explicit
// index-order sum — however often it is computed; and of several unknown
// local states the error names the first in (group, state) order.
func TestAccumulatedStateRewardOrderIndependent(t *testing.T) {
	fs := compileClientServer(t)
	res, err := fs.Solve(50, 60, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.Vars) < 4 {
		t.Fatalf("model has %d variables, want at least 4", len(fs.Vars))
	}
	weights := map[LocalState]float64{}
	for i, ls := range fs.Vars[:4] {
		weights[ls] = []float64{0.1, 2.7, 1e-3, 33}[i]
	}
	instant := func(x []float64) float64 {
		var v float64
		for i, ls := range fs.Vars[:4] {
			v += weights[ls] * x[i]
		}
		return v
	}
	var want float64
	for k := 1; k < len(res.Times); k++ {
		want += (res.Times[k] - res.Times[k-1]) * (instant(res.X[k-1]) + instant(res.X[k])) / 2
	}
	for call := 0; call < 500; call++ {
		got, err := res.AccumulatedStateReward(weights)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: reward %x, index-order sum %x", call, math.Float64bits(got), math.Float64bits(want))
		}
	}
	weights[LocalState{Group: "Zeta", State: "A"}] = 1
	weights[LocalState{Group: "Alpha", State: "B"}] = 1
	weights[LocalState{Group: "Alpha", State: "A"}] = 1
	for call := 0; call < 50; call++ {
		_, err := res.AccumulatedStateReward(weights)
		if err == nil || !strings.Contains(err.Error(), "Alpha:A") {
			t.Fatalf("call %d: err = %v, want it to name Alpha:A", call, err)
		}
	}
}

func TestFluidSteadyState(t *testing.T) {
	fs := compileClientServer(t)
	x, tEq, err := fs.SteadyState(FluidSteadyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tEq <= 0 {
		t.Errorf("equilibrium time = %g", tEq)
	}
	// The derivative must vanish at the reported equilibrium.
	dst := make([]float64, len(x))
	fs.Derivative(x, dst)
	for i, v := range dst {
		if math.Abs(v) > 1e-4 {
			t.Errorf("derivative[%d] = %g at claimed equilibrium", i, v)
		}
	}
	// Mass is conserved at equilibrium.
	if got := fs.GroupPopulation("Clients", x); math.Abs(got-100) > 1e-6 {
		t.Errorf("client mass at equilibrium = %g", got)
	}
	// The equilibrium matches a long fixed-horizon solve.
	res, err := fs.Solve(500, 100, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	final := res.Final()
	for i := range x {
		if math.Abs(x[i]-final[i]) > 0.01 {
			t.Errorf("equilibrium[%d] = %g vs long-run %g", i, x[i], final[i])
		}
	}
}

func TestFluidSteadyStateHorizonExhaustion(t *testing.T) {
	// A pure drift system (one-way counter) never equilibrates... all our
	// models conserve mass, so emulate by tiny horizon instead.
	fs := compileClientServer(t)
	if _, _, err := fs.SteadyState(FluidSteadyOptions{Tol: 1e-15, MaxHorizon: 0.5, Step: 0.2}); err == nil {
		t.Error("expected horizon exhaustion with impossible tolerance")
	}
}

// TestSteadyStateConcurrentWithSolveAndSimulate: SteadyState integrates its
// probes from an explicit state and never writes the system, so it may
// run beside Solve and Simulate on one FluidSystem. It once swapped X0 for
// each probe, a data race (go test -race) that also started a concurrent
// Solve from the probe's state.
func TestSteadyStateConcurrentWithSolveAndSimulate(t *testing.T) {
	fs := compileClientServer(t)
	wantSolve, err := fs.Solve(20, 40, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantSim, err := fs.Simulate(5, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantX, wantT, err := fs.SteadyState(FluidSteadyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			x, tEq, err := fs.SteadyState(FluidSteadyOptions{})
			if err != nil || tEq != wantT || !reflect.DeepEqual(x, wantX) {
				t.Errorf("concurrent SteadyState = %v at t=%g (%v), want %v at t=%g", x, tEq, err, wantX, wantT)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			res, err := fs.Solve(20, 40, SolveOptions{})
			if err != nil || !reflect.DeepEqual(res.X, wantSolve.X) {
				t.Errorf("concurrent Solve differs from a lone one (err %v)", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			res, err := fs.Simulate(5, 10, 3)
			if err != nil || !reflect.DeepEqual(res, wantSim) {
				t.Errorf("concurrent Simulate differs from a lone one (err %v)", err)
				return
			}
		}
	}()
	wg.Wait()
}
