package robustness

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/goldentest"
)

// compareDigestPath pins CompareMappings bit for bit: one line per
// parameter set, carrying the winner and a SHA-256 over the Float64bits
// of both reports' Nominal, Worst, Mean, Best and every sorted Value.
// Regenerate with `go test ./internal/robustness -run
// TestCompareMappingsDigests -update` only after an intended change to
// the study's numbers.
const compareDigestPath = "testdata/compare_digests.txt"

// compareCases spans the benchmark's sweep shape (seeds 1–3), the unit
// tests' deadlines and spreads, a spread near its limit, a coarse grid
// with a late deadline, and a deadline far below any machine's finish.
var compareCases = []struct {
	tau, spread float64
	n           int
	seed        uint64
	samples     int
}{
	{60, 0.3, 256, 1, 40},
	{60, 0.3, 256, 2, 40},
	{60, 0.3, 256, 3, 40},
	{300, 0.2, 8, 2019, 30},
	{300, 0.05, 5, 11, 25},
	{300, 0.4, 5, 11, 25},
	{37.3, 0.9, 64, 5, 17},
	{1e3, 0.5, 32, 9, 7},
	{0.5, 0.1, 16, 4, 3},
}

func TestCompareMappingsDigests(t *testing.T) {
	var got strings.Builder
	for _, c := range compareCases {
		a, b, winner, err := NewStudy().CompareMappings(c.tau, c.spread, c.n, c.seed, c.samples)
		if err != nil {
			t.Fatalf("tau=%g spread=%g n=%d seed=%d samples=%d: %v", c.tau, c.spread, c.n, c.seed, c.samples, err)
		}
		var bits []byte
		for _, rep := range []*PerturbationReport{a, b} {
			for _, v := range append([]float64{rep.Nominal, rep.Worst, rep.Mean, rep.Best}, rep.Values...) {
				bits = binary.LittleEndian.AppendUint64(bits, math.Float64bits(v))
			}
		}
		sum := sha256.Sum256(bits)
		fmt.Fprintf(&got, "tau=%g spread=%g n=%d seed=%d samples=%d winner=%s sha256=%s\n",
			c.tau, c.spread, c.n, c.seed, c.samples, winner, hex.EncodeToString(sum[:]))
	}
	goldentest.Check(t, compareDigestPath, got.String())
}
