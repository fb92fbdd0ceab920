package repro

// Parallel-scaling benchmarks: the hpc-parallel substance of the
// toolchain. Every parallel path is bit-identical to its sequential
// counterpart (results are reduced in index order), so these benches
// measure pure speedup. Run with: go test -bench=Parallel -cpu=1,4,8
import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/gpepa"
	"repro/internal/hostenv"
	"repro/internal/pepa"
	"repro/internal/pepa/sim"
)

// BenchmarkParallelEnsemble measures PEPA simulation ensembles with one
// worker versus all cores.
func BenchmarkParallelEnsemble(b *testing.B) {
	m := pepa.MustParse("P = (work, 2).P1; P1 = (rest, 1).P; P")
	opts := sim.Options{Horizon: 2000, Seed: 11}
	b.Run("workers-1", func(b *testing.B) {
		o := opts
		o.Workers = 1
		for i := 0; i < b.N; i++ {
			if _, err := sim.RunEnsemble(m, o, 16); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("workers-all", func(b *testing.B) {
		o := opts
		o.Workers = 0
		for i := 0; i < b.N; i++ {
			if _, err := sim.RunEnsemble(m, o, 16); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParallelSweep measures the rate-sweep fan-out: the model is
// derived once into a chain family and each point re-rates it and solves
// its own member CTMC.
func BenchmarkParallelSweep(b *testing.B) {
	m := pepa.MustParse(core.SimplePEPAModel)
	values := experiment.Linspace(0.5, 4, 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RateSweep(m, "mu", values, experiment.Throughput{Action: "serve"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelGPEPAMean measures the fluid-vs-simulation validation
// workload (25 stochastic replications of the client/server model).
func BenchmarkParallelGPEPAMean(b *testing.B) {
	m := gpepa.MustParse(core.ClientServerGPEPAModel)
	sys, err := gpepa.Compile(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.MeanOfSimulations(20, 20, 25, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelBuildAll measures the three-container build fan-out on
// the 20-core build host profile (cache disabled: cold builds each time).
func BenchmarkParallelBuildAll(b *testing.B) {
	fw := core.New()
	fw.Engine.CacheDisabled = true
	host, err := hostenv.ByName(hostenv.BuildHost)
	if err != nil {
		b.Fatal(err)
	}
	if err := host.InstallSingularity(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fw.BuildAll(host); err != nil {
			b.Fatal(err)
		}
	}
}
