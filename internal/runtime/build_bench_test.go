package runtime

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/hostenv"
	"repro/internal/recipe"
)

// benchStageLines is the number of package-manager invocations per heavy
// %post stage: each runs full dependency resolution against the base
// repo, so the heavy stages cost what real %post sections cost — shell
// execution, not recipe bytes.
const benchStageLines = 200

// benchPrefix is the heavy three-stage prelude, rendered once.
var benchPrefix = func() string {
	var b strings.Builder
	b.WriteString("Bootstrap: library\nFrom: centos:7.4\n")
	for s := 0; s < 3; s++ {
		b.WriteString("\n%post\n")
		fmt.Fprintf(&b, "    mkdir -p /opt/tool%d\n", s)
		for i := 0; i < benchStageLines; i++ {
			fmt.Fprintf(&b, "    pkg install pepa-eclipse-plugin && echo step-%d-%d >> /opt/tool%d/log\n", s, i, s)
		}
	}
	return b.String()
}()

// benchRecipe renders a four-stage recipe: three heavy stages and one
// cheap final stage whose body embeds last, so varying last edits only
// the final stage.
func benchRecipe(last string) string {
	return benchPrefix + "\n%post\n    mkdir -p /opt\n    echo " + last + " > /opt/final\n"
}

func benchHost(tb testing.TB) *hostenv.Host {
	tb.Helper()
	h, err := hostenv.ByName(hostenv.BuildHost)
	if err != nil {
		tb.Fatal(err)
	}
	if err := h.InstallSingularity(); err != nil {
		tb.Fatal(err)
	}
	return h
}

// BenchmarkBuildStagedCold measures a from-scratch build on a fresh
// engine, whose caches are empty: every stage executes each iteration.
func BenchmarkBuildStagedCold(b *testing.B) {
	host := benchHost(b)
	rcp, err := recipe.Parse(benchRecipe("final"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		res, err := e.Build(rcp, host, BuildContext{}, "bench", "latest")
		if err != nil {
			b.Fatal(err)
		}
		if res.StagesExecuted != 5 {
			b.Fatalf("cold build executed %d stages, want 5 (base + 4 %%post)", res.StagesExecuted)
		}
	}
}

// BenchmarkBuildStagedWarmLastStageEdit measures the incremental rebuild
// the stage cache exists for: each iteration edits only the final stage,
// so the three heavy stages replay as cached layers and exactly one stage
// executes. The benchcmp families gate the warm/cold ratio claimed in
// docs/PERFORMANCE.md (warm ≥ 10× faster).
func BenchmarkBuildStagedWarmLastStageEdit(b *testing.B) {
	host := benchHost(b)
	e := NewEngine()
	prime, err := recipe.Parse(benchRecipe("prime"))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.Build(prime, host, BuildContext{}, "bench", "latest"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rcp, err := recipe.Parse(benchRecipe(fmt.Sprintf("edit%d", i)))
		if err != nil {
			b.Fatal(err)
		}
		res, err := e.Build(rcp, host, BuildContext{}, "bench", "latest")
		if err != nil {
			b.Fatal(err)
		}
		if res.StagesExecuted != 1 || res.StagesReplayed != 4 {
			b.Fatalf("warm build executed %d stages (replayed %d), want 1 (4)", res.StagesExecuted, res.StagesReplayed)
		}
	}
}
