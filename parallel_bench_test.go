package repro

// Parallel-scaling benchmarks: the hpc-parallel substance of the
// toolchain. Every fan-out runs GOMAXPROCS wide and is bit-identical to
// its sequential run (results are reduced in index order), so these
// benches measure pure speedup. Run with: go test -bench=Parallel -cpu=1,4,8
import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/gpepa"
	"repro/internal/hostenv"
	"repro/internal/pepa"
	"repro/internal/pepa/sim"
)

// BenchmarkParallelEnsemble measures a 16-replication PEPA simulation
// ensemble; -cpu 1,4 compares one worker with four.
func BenchmarkParallelEnsemble(b *testing.B) {
	m := pepa.MustParse("P = (work, 2).P1; P1 = (rest, 1).P; P")
	opts := sim.Options{Horizon: 2000, Seed: 11}
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunEnsemble(m, opts, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelSweep measures the rate-sweep fan-out: the model is
// derived once into a chain family, and each worker solves one contiguous
// run of points as one steady-state batch on the family's pattern, with
// no per-point chain.
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
// the 20-core build host profile, cold each time: every iteration builds
// on a fresh framework, whose build and stage caches are empty.
func BenchmarkParallelBuildAll(b *testing.B) {
	host, err := hostenv.ByName(hostenv.BuildHost)
	if err != nil {
		b.Fatal(err)
	}
	if err := host.InstallSingularity(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fw := core.New()
		b.StartTimer()
		if _, err := fw.BuildAll(host); err != nil {
			b.Fatal(err)
		}
	}
}
