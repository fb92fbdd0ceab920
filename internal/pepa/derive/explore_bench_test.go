package derive_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/pepa"
	"repro/internal/pepa/derive"
	"repro/internal/robustness"
)

// pclanSource renders core.PCLAN4Model widened to n stations: station i
// thinks at rate i/8 and transmits at rate 2 + i/4 (both exact in binary),
// and the stations' pure-parallel chain cooperates with one shared
// medium on every transmit action. It has 2^n·2 states and
// 2^(n-1)·(3n+2) transitions: 2,048 and 16,384 at n = 10, the size of
// the benchmark's solve workload.
func pclanSource(n int) string {
	var b strings.Builder
	b.WriteString("prop = 5;\n")
	var alts, set []string
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "think_%d = %g; tx_%d = %g;\n", i, float64(i)/8, i, 2+float64(i)/4)
		fmt.Fprintf(&b, "PC%d = (think%d, think_%d).PC%dw; PC%dw = (tx%d, tx_%d).PC%d;\n", i, i, i, i, i, i, i, i)
		alts = append(alts, fmt.Sprintf("(tx%d, T).Busy", i))
		set = append(set, fmt.Sprintf("tx%d", i))
	}
	fmt.Fprintf(&b, "Medium = %s;\nBusy = (propagate, prop).Medium;\n", strings.Join(alts, " + "))
	sys := "PC1"
	for i := 2; i <= n; i++ {
		sys = fmt.Sprintf("(%s || PC%d)", sys, i)
	}
	fmt.Fprintf(&b, "%s <%s> Medium\n", sys, strings.Join(set, ","))
	return b.String()
}

// BenchmarkExplore derives the 10-station PC LAN from scratch: a
// ten-level cooperation chain whose 1,024 station configurations each
// pair with both medium states. It is gated on allocs/op
// (docs/PERFORMANCE.md), which tracks how many state and memo keys
// derivation materializes.
func BenchmarkExplore(b *testing.B) {
	m := pepa.MustParse(pclanSource(10))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ss, err := derive.Explore(m, derive.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if ss.NumStates() != 2048 || ss.NumTransitions() != 16384 {
			b.Fatalf("states = %d, transitions = %d, want 2048 and 16384", ss.NumStates(), ss.NumTransitions())
		}
	}
}

// BenchmarkExploreSmall derives the small models every sweep op derives:
// the ten Table I machine models (both mappings, absorbing) and a
// 6-station PC LAN. A compiled form that costs more to set up than it
// saves on small models shows here first; it is gated beside
// BenchmarkExplore.
func BenchmarkExploreSmall(b *testing.B) {
	study := robustness.NewStudy()
	var machines []*pepa.Model
	for _, mapping := range []string{robustness.MappingA, robustness.MappingB} {
		for j := 0; j < robustness.NumMachines; j++ {
			m, err := study.MachineModel(mapping, j, false)
			if err != nil {
				b.Fatal(err)
			}
			machines = append(machines, m)
		}
	}
	b.Run("tableI", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, m := range machines {
				if _, err := derive.Explore(m, derive.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	lan := pepa.MustParse(pclanSource(6))
	b.Run("pclan6", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ss, err := derive.Explore(lan, derive.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if ss.NumStates() != 128 {
				b.Fatalf("states = %d, want 128", ss.NumStates())
			}
		}
	})
}
