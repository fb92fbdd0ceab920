// Package repro's benchmark harness regenerates every table and figure of
// the paper as a testing.B benchmark (see DESIGN.md §3 for the experiment
// index). Run with:
//
//	go test -bench=. -benchmem
//
// The container-pipeline benchmarks additionally report domain metrics
// (the native-vs-container overhead ratio) via b.ReportMetric.
package repro

import (
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ctmc"
	"repro/internal/gpepa"
	"repro/internal/hostenv"
	"repro/internal/hub"
	"repro/internal/pepa/derive"
	"repro/internal/robustness"
	"repro/internal/runtime"
)

// --- Table I ---------------------------------------------------------------

// BenchmarkTableIMappingModels builds and derives the PEPA models of all
// five machines under both mappings of Table I.
func BenchmarkTableIMappingModels(b *testing.B) {
	s := robustness.NewStudy()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, mapping := range []string{robustness.MappingA, robustness.MappingB} {
			for j := 0; j < robustness.NumMachines; j++ {
				m, err := s.MachineModel(mapping, j, false)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := derive.Explore(m, derive.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// --- Fig 1: container validation of the simple PEPA model -------------------

func BenchmarkFig1ContainerValidation(b *testing.B) {
	fw := core.New()
	host := mustHost(b, hostenv.BuildHost)
	build, err := fw.Build(core.ToolPEPA, host)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := fw.Validate(core.ToolPEPA, host, build.Image, "simple.pepa", core.SimplePEPAModel)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Match {
			b.Fatal("validation mismatch")
		}
	}
}

// --- Fig 2: activity diagram ------------------------------------------------

func BenchmarkFig2ActivityDiagram(b *testing.B) {
	s := robustness.NewStudy()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dot, err := s.ActivityDiagram(robustness.MappingA, 2)
		if err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(dot, "digraph") {
			b.Fatal("bad diagram")
		}
	}
}

// --- Figs 3 and 4: finishing-time CDFs --------------------------------------

func benchCDF(b *testing.B, mapping string) {
	s := robustness.NewStudy()
	times := make([]float64, 61)
	for i := range times {
		times[i] = float64(i) * 10
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cdf, err := s.FinishingCDF(mapping, 0, times)
		if err != nil {
			b.Fatal(err)
		}
		if last := cdf.Probs[len(cdf.Probs)-1]; last < 0.9 {
			b.Fatalf("CDF did not approach 1: %g", last)
		}
	}
}

func BenchmarkFig3CDFMappingA(b *testing.B) { benchCDF(b, robustness.MappingA) }
func BenchmarkFig4CDFMappingB(b *testing.B) { benchCDF(b, robustness.MappingB) }

// --- Fig 5: client/server scalability fluid analysis ------------------------

func BenchmarkFig5ClientServerScalability(b *testing.B) {
	m := gpepa.MustParse(core.ClientServerGPEPAModel)
	sys, err := gpepa.Compile(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sys.Solve(50, 100, gpepa.SolveOptions{})
		if err != nil {
			b.Fatal(err)
		}
		_ = res.Final()
	}
}

// --- Fig 6: hub push/list/pull ----------------------------------------------

func BenchmarkFig6HubPullAll(b *testing.B) {
	fw := core.New()
	host := mustHost(b, hostenv.BuildHost)
	builds, err := fw.BuildAll(host)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(hub.NewServer(hub.NewStore()).Handler())
	defer ts.Close()
	client := hub.NewClient(ts.URL)
	digests, err := fw.PushAll(client, builds)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tool := range core.Tools() {
			if _, _, err := client.Pull(fw.Collection, string(tool), "latest", digests[tool]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- §III: the full validation matrix ---------------------------------------

func BenchmarkValidationMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fw := core.New()
		ts := httptest.NewServer(hub.NewServer(hub.NewStore()).Handler())
		entries, err := fw.ValidationMatrix(hub.NewClient(ts.URL))
		ts.Close()
		if err != nil {
			b.Fatal(err)
		}
		if len(entries) != 21 {
			b.Fatalf("entries = %d", len(entries))
		}
	}
}

// --- Motivation: native install vs container pull ---------------------------

func BenchmarkNativeInstallVsContainerPull(b *testing.B) {
	fw := core.New()
	builder := mustHost(b, hostenv.BuildHost)
	build, err := fw.Build(core.ToolPEPA, builder)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(hub.NewServer(hub.NewStore()).Handler())
	defer ts.Close()
	client := hub.NewClient(ts.URL)
	digest, err := client.Push(fw.Collection, build.Image)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("native-install-where-it-works", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h := mustHost(b, hostenv.CentOS76)
			if err := h.NativeInstall("pepa-eclipse-plugin"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("native-install-failure-path", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h := mustHost(b, hostenv.Ubuntu1804)
			if err := h.NativeInstall("pepa-eclipse-plugin"); err == nil {
				b.Fatal("expected failure")
			}
		}
	})
	b.Run("container-pull-anywhere", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := client.Pull(fw.Collection, "pepa", "latest", digest); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- [32][33]: containerization overhead ------------------------------------

// BenchmarkContainerOverhead compares solving the same PEPA model natively
// and inside the container, reporting the overhead ratio.
func BenchmarkContainerOverhead(b *testing.B) {
	fw := core.New()
	host := mustHost(b, hostenv.BuildHost)
	build, err := fw.Build(core.ToolPEPA, host)
	if err != nil {
		b.Fatal(err)
	}
	if err := host.FS.MkdirAll("/home/modeler/models", 0o755); err != nil {
		b.Fatal(err)
	}
	if err := host.FS.WriteFile("/home/modeler/models/m.pepa", []byte(core.SimplePEPAModel), 0o644); err != nil {
		b.Fatal(err)
	}

	var nativeNs, containerNs float64
	b.Run("native", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fw.Engine.NativeRun("pepa-solver", []string{"/home/modeler/models/m.pepa"}, host); err != nil {
				b.Fatal(err)
			}
		}
		nativeNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("containerized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := fw.Engine.Run(build.Image, host, runtime.RunOptions{
				Isolation: runtime.IsolationSingularity,
				Args:      []string{"/data/m.pepa"},
				Binds:     []runtime.Bind{{HostPath: "/home/modeler/models", ContainerPath: "/data"}},
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		containerNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		if nativeNs > 0 {
			b.ReportMetric(containerNs/nativeNs, "overhead-ratio")
		}
	})
}

// --- Micro-benchmarks of the numerical core ---------------------------------

func BenchmarkSteadyStateBirthDeath(b *testing.B) {
	k := 200
	rates := map[[2]int]float64{}
	for i := 0; i < k; i++ {
		rates[[2]int{i, i + 1}] = 1
		rates[[2]int{i + 1, i}] = 2
	}
	c := ctmc.NewChain(k+1, rates)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.SteadyState(ctmc.SteadyStateOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUniformizationTransient(b *testing.B) {
	k := 100
	rates := map[[2]int]float64{}
	for i := 0; i < k; i++ {
		rates[[2]int{i, i + 1}] = 2
		rates[[2]int{i + 1, i}] = 1
	}
	c := ctmc.NewChain(k+1, rates)
	p0 := c.PointMass(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Transient(p0, 10, 1e-9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGPEPASimulation(b *testing.B) {
	m := gpepa.MustParse(core.ClientServerGPEPAModel)
	sys, err := gpepa.Compile(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Simulate(10, 10, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkImageDigest(b *testing.B) {
	fw := core.New()
	host := mustHost(b, hostenv.BuildHost)
	build, err := fw.Build(core.ToolPEPA, host)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := build.Image.Digest(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkContainerBuild(b *testing.B) {
	host := mustHost(b, hostenv.BuildHost)
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// A fresh framework has empty build and stage caches.
			b.StopTimer()
			fw := core.New()
			b.StartTimer()
			if _, err := fw.Build(core.ToolPEPA, host); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		fw := core.New()
		if _, err := fw.Build(core.ToolPEPA, host); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fw.Build(core.ToolPEPA, host); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func mustHost(b *testing.B, name string) *hostenv.Host {
	b.Helper()
	h, err := hostenv.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	if err := h.InstallSingularity(); err != nil {
		b.Fatal(err)
	}
	return h
}
