package repro

// Ablation benchmarks for the design choices DESIGN.md calls out: state
// aggregation, steady-state solver selection, uniformization truncation
// accuracy, fluid integrator choice, and simulation-vs-numerical analysis.
// Run with: go test -bench=Ablation -benchmem

import (
	"strings"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/gpepa"
	"repro/internal/numeric/ode"
	"repro/internal/pepa"
	"repro/internal/pepa/derive"
	"repro/internal/pepa/sim"

	"repro/internal/core"
)

// replicatedToggles builds n interleaved copies of a 2-state component.
func replicatedToggles(n int) *pepa.Model {
	var b strings.Builder
	b.WriteString("C = (up, 1).D; D = (down, 2).C;\n")
	parts := make([]string, n)
	for i := range parts {
		parts[i] = "C"
	}
	b.WriteString(strings.Join(parts, " || "))
	return pepa.MustParse(b.String())
}

// BenchmarkAblationAggregation compares exploration with and without
// symmetric-component lumping: 2^10 = 1024 states vs 11.
func BenchmarkAblationAggregation(b *testing.B) {
	m := replicatedToggles(10)
	b.Run("off-1024-states", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ss, err := derive.Explore(m, derive.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if ss.NumStates() != 1024 {
				b.Fatalf("states = %d", ss.NumStates())
			}
		}
	})
	b.Run("on-11-states", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ss, err := derive.Explore(m, derive.Options{Aggregate: true})
			if err != nil {
				b.Fatal(err)
			}
			if ss.NumStates() != 11 {
				b.Fatalf("states = %d", ss.NumStates())
			}
		}
	})
}

// BenchmarkAblationSteadySolver compares the iterative Gauss–Seidel path
// against the dense LU fallback on a 150-state birth–death chain.
func BenchmarkAblationSteadySolver(b *testing.B) {
	k := 150
	rates := map[[2]int]float64{}
	for i := 0; i < k; i++ {
		rates[[2]int{i, i + 1}] = 1
		rates[[2]int{i + 1, i}] = 2
	}
	c := ctmc.NewChain(k+1, rates)
	b.Run("gauss-seidel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c.SteadyState(ctmc.SteadyStateOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dense-lu", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c.SteadyState(ctmc.SteadyStateOptions{DenseOnly: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationUniformizationEps shows the cost of tighter truncation
// accuracy in the transient solver.
func BenchmarkAblationUniformizationEps(b *testing.B) {
	k := 80
	rates := map[[2]int]float64{}
	for i := 0; i < k; i++ {
		rates[[2]int{i, i + 1}] = 2
		rates[[2]int{i + 1, i}] = 1
	}
	c := ctmc.NewChain(k+1, rates)
	p0 := c.PointMass(0)
	for _, eps := range []float64{1e-6, 1e-10, 1e-14} {
		name := "eps-1e-6"
		switch eps {
		case 1e-10:
			name = "eps-1e-10"
		case 1e-14:
			name = "eps-1e-14"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.Transient(p0, 20, eps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationFluidIntegrator compares fixed-step RK4 against
// adaptive Dormand–Prince on the client/server fluid ODEs at comparable
// accuracy.
func BenchmarkAblationFluidIntegrator(b *testing.B) {
	m := gpepa.MustParse(core.ClientServerGPEPAModel)
	sys, err := gpepa.Compile(m)
	if err != nil {
		b.Fatal(err)
	}
	f := func(t float64, y, dst []float64) { sys.Derivative(y, dst) }
	grid := ode.Grid(0, 50, 50)
	b.Run("rk4-fixed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ode.RK4(f, sys.X0, grid, 0.01); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dp45-adaptive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ode.DormandPrince(f, sys.X0, grid, ode.DormandPrinceOptions{RelTol: 1e-8, AbsTol: 1e-10}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationAnalysisMode compares exact numerical solution against
// stochastic simulation for a throughput estimate on the same model.
func BenchmarkAblationAnalysisMode(b *testing.B) {
	src := "mu = 3.0; lambda = 2.0; phi = 0.2; rho = 1.0;\n" +
		"Proc = (serve, mu).Proc + (fault, phi).Down;\n" +
		"Down = (repair, rho).Proc;\n" +
		"Jobs = (serve, T).Jobs + (arrive, lambda).Jobs;\n" +
		"Proc <serve> Jobs"
	m := pepa.MustParse(src)
	b.Run("numeric-steady-state", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ss, err := derive.Explore(m, derive.Options{})
			if err != nil {
				b.Fatal(err)
			}
			chain := ctmc.FromStateSpace(ss)
			pi, err := chain.SteadyState(ctmc.SteadyStateOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := chain.Throughput(pi, "serve"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("simulation-t1000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := sim.Run(m, sim.Options{Horizon: 1000, Seed: uint64(i) + 1})
			if err != nil {
				b.Fatal(err)
			}
			_ = res.Throughput("serve")
		}
	})
}
