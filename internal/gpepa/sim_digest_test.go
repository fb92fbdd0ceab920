package gpepa

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

// simDigestPath pins the population SSA bit for bit. Regenerate with
// `go test ./internal/gpepa -run TestSimulationDigests -update` only after
// an intended change to simulation output.
const simDigestPath = "testdata/goldens/sim_digests.txt"

// digestGrid hashes a jump count and the Float64bits of every time and
// every grid row, in order.
func digestGrid(jumps int, times []float64, rows ...[][]float64) string {
	h := sha256.New()
	var buf []byte
	num := func(v uint64) { buf = binary.BigEndian.AppendUint64(buf, v) }
	num(uint64(jumps))
	for _, t := range times {
		num(math.Float64bits(t))
	}
	for _, grid := range rows {
		num(uint64(len(grid)))
		for _, row := range grid {
			for _, v := range row {
				num(math.Float64bits(v))
			}
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// TestSimulationDigests is the bit-level oracle for the population SSA on
// the client/server model: one trajectory, the mean of one and of five
// replications, and the five-replication mean/std ensemble, each at three
// seeds.
func TestSimulationDigests(t *testing.T) {
	fs := compileClientServer(t)
	const horizon, n = 10.0, 20
	var got strings.Builder
	for _, seed := range []uint64{1, 2, 42} {
		one, err := fs.Simulate(horizon, n, seed)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "seed=%d simulate %s\n", seed, digestGrid(one.Jumps, one.Times, one.X))
		for _, k := range []int{1, 5} {
			mean, err := fs.MeanOfSimulations(horizon, n, k, seed)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "seed=%d mean k=%d %s\n", seed, k, digestGrid(mean.Jumps, mean.Times, mean.X))
		}
		ens, err := fs.EnsembleOfSimulations(horizon, n, 5, seed)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "seed=%d ensemble k=%d %s\n", seed, ens.Replications, digestGrid(ens.Jumps, ens.Times, ens.Mean, ens.Std))
	}
	goldentest.Check(t, simDigestPath, got.String())
}
