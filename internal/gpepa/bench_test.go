package gpepa_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gpepa"
)

// BenchmarkGPEPAFluidDerivative evaluates the Fig 5 model's vector field
// at X0, the call the fluid integrator makes once per stage. It is gated
// at 0 allocs/op (`make bench-allocs`).
func BenchmarkGPEPAFluidDerivative(b *testing.B) {
	sys, err := gpepa.Compile(gpepa.MustParse(core.ClientServerGPEPAModel))
	if err != nil {
		b.Fatal(err)
	}
	x := append([]float64(nil), sys.X0...)
	dst := make([]float64, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Derivative(x, dst)
	}
}
