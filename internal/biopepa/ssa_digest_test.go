package biopepa

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

// ssaDigestPath pins the Bio-PEPA SSA bit for bit. Regenerate with
// `go test ./internal/biopepa -run TestSSADigests -update` only after an
// intended change to simulation output.
const ssaDigestPath = "testdata/goldens/ssa_digests.txt"

// digestSSA hashes a result's jump count and the Float64bits of every
// sample time and every sampled amount, in order.
func digestSSA(r *SSAResult) string {
	h := sha256.New()
	var buf []byte
	num := func(v uint64) { buf = binary.BigEndian.AppendUint64(buf, v) }
	num(uint64(r.Jumps))
	for _, t := range r.Times {
		num(math.Float64bits(t))
	}
	for _, row := range r.X {
		for _, v := range row {
			num(math.Float64bits(v))
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// TestSSADigests is the bit-level oracle for the Bio-PEPA SSA: one
// trajectory and the five-replication mean of the enzyme, inhibited and
// Michaelis–Menten models, each at three seeds.
func TestSSADigests(t *testing.T) {
	var got strings.Builder
	for _, tc := range []struct{ name, src string }{
		{"enzyme", enzymeSrc},
		{"inhibited", inhibitedSrc},
		{"michaelis-menten", mmSrc},
	} {
		m := MustParse(tc.src)
		for _, seed := range []uint64{1, 2, 42} {
			one, err := m.SimulateSSA(50, 25, seed)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			mean, err := m.MeanSSA(50, 25, 5, seed)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			fmt.Fprintf(&got, "%s seed=%d ssa %s mean k=5 %s\n", tc.name, seed, digestSSA(one), digestSSA(mean))
		}
	}
	goldentest.Check(t, ssaDigestPath, got.String())
}
