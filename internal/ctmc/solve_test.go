package ctmc

// Tests of the solve path's contracts: a chain keeps no solve state, so
// editing Q between calls is simply correct and concurrent solves of one
// chain agree; malformed generators are rejected; and a uniform grid
// computes one Poisson table per call.

import (
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/numeric/sparse"
	"repro/internal/obs"
)

// benchChainRates builds a birth-death chain with k+1 states and slightly
// irregular rates so no two matrix entries are equal.
func benchChainRates(k int) map[[2]int]float64 {
	rates := map[[2]int]float64{}
	for i := 0; i < k; i++ {
		rates[[2]int{i, i + 1}] = 2 + 0.01*float64(i%7)
		rates[[2]int{i + 1, i}] = 1 + 0.03*float64(i%5)
	}
	return rates
}

func cdfGrid(n int, step float64) []float64 {
	times := make([]float64, n)
	for i := range times {
		times[i] = float64(i) * step
	}
	return times
}

func TestConcurrentTransientSolvesShareCache(t *testing.T) {
	// Hammer one chain from several goroutines: solves share only the
	// read-only chain, so they must be race-free (run under -race in CI)
	// and every result identical.
	c := NewChain(101, benchChainRates(100))
	want, err := c.Transient(c.PointMass(0), 2, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	times := cdfGrid(4, 0.4)
	wantSeries, err := c.TransientSeries(c.PointMass(0), times, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got, err := c.Transient(c.PointMass(0), 2, 1e-10)
			if err != nil {
				errs[g] = err
				return
			}
			for s := range want {
				if got[s] != want[s] {
					errs[g] = errMismatch
					return
				}
			}
			series, err := c.TransientSeries(c.PointMass(0), times, 1e-9)
			if err != nil {
				errs[g] = err
				return
			}
			for k := range wantSeries {
				if !bitsEqual(series[k], wantSeries[k]) {
					errs[g] = errMismatch
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent solve diverged from sequential result" }

func TestFirstPassageCDFRejectsMalformedGenerator(t *testing.T) {
	// Hand-build chains whose generators violate (or satisfy) the
	// nonnegative off-diagonal requirement.
	build := func(entries map[[2]int]float64, n int) *Chain {
		coo := newCOOFromMap(entries, n)
		exit := make([]float64, n)
		for k, v := range entries {
			if k[0] != k[1] && v > 0 {
				exit[k[0]] += v
			}
		}
		return &Chain{N: n, Q: coo, ExitRate: exit, ActionRate: map[string][]float64{}}
	}
	cases := []struct {
		name    string
		entries map[[2]int]float64
		n       int
		targets []int
		wantErr bool
	}{
		{"valid generator", map[[2]int]float64{{0, 1}: 1, {1, 1}: -1, {0, 0}: -1, {1, 0}: 1}, 2, []int{1}, false},
		{"negative off-diagonal", map[[2]int]float64{{0, 1}: -2, {0, 0}: 2, {1, 0}: 1, {1, 1}: -1}, 2, []int{1}, true},
		{"negative rate into target from transient row", map[[2]int]float64{{0, 2}: -3, {0, 1}: 1, {0, 0}: 2, {1, 0}: 1, {1, 1}: -1}, 3, []int{2}, true},
		{"negative entry inside target row is ignored (row is zeroed anyway)",
			map[[2]int]float64{{0, 1}: 1, {0, 0}: -1, {1, 0}: -5, {1, 1}: 5}, 2, []int{1}, false},
	}
	times := []float64{0, 0.5, 1}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := build(tc.entries, tc.n)
			_, err := c.FirstPassageCDF(c.PointMass(0), tc.targets, times, 1e-9)
			if tc.wantErr && err == nil {
				t.Fatal("malformed generator accepted, want error")
			}
			if !tc.wantErr && err != nil {
				t.Fatalf("valid generator rejected: %v", err)
			}
		})
	}
}

// newCOOFromMap assembles a CSR from a dense entry map in deterministic
// (sorted) insertion order, bypassing NewChain's negative-rate panic so
// malformed generators can be constructed for the rejection tests.
func newCOOFromMap(entries map[[2]int]float64, n int) *sparse.CSR {
	keys := make([][2]int, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	coo := sparse.NewCOO(n, n, len(keys))
	for _, k := range keys {
		coo.Add(k[0], k[1], entries[k])
	}
	return coo.ToCSR()
}

func TestPoissonWeightSharingAcrossUniformGrid(t *testing.T) {
	c := NewChain(61, benchChainRates(60))
	c.Obs = obs.NewRegistry()
	times := cdfGrid(50, 0.25) // uniform dt -> one weight table after t=0
	if _, err := c.TransientSeries(c.PointMass(0), times, 1e-10); err != nil {
		t.Fatal(err)
	}
	misses := c.Obs.Counter("ctmc_poisson_cache_total", obs.L("outcome", "miss"))
	hits := c.Obs.Counter("ctmc_poisson_cache_total", obs.L("outcome", "hit"))
	if misses != 1 {
		t.Fatalf("uniform grid computed %g weight tables, want exactly 1", misses)
	}
	if hits < 40 {
		t.Fatalf("weight table hits = %g, want ~48", hits)
	}
}

// TestInPlaceMutationBetweenSolves: nothing a solve derives from Q outlives
// the call, so editing Q.Val in place between two solves is simply
// correct. Swapping each interior state's up and down rates keeps the
// pattern, every exit rate and so the uniformization rate q; the second
// solves must match a fresh chain built with the swapped rates bit for bit.
func TestInPlaceMutationBetweenSolves(t *testing.T) {
	const k = 40
	rates := benchChainRates(k)
	c := NewChain(k+1, rates)
	times := cdfGrid(8, 0.5)
	targets := []int{k}
	if _, err := c.SteadyState(SteadyStateOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.TransientSeries(c.PointMass(0), times, 1e-10); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FirstPassageCDF(c.PointMass(0), targets, times, 1e-10); err != nil {
		t.Fatal(err)
	}

	swapped := make(map[[2]int]float64, len(rates))
	for key, v := range rates {
		swapped[key] = v
	}
	for i := 1; i < k; i++ {
		down, up := [2]int{i, i - 1}, [2]int{i, i + 1}
		swapped[down], swapped[up] = rates[up], rates[down]
	}
	fresh := NewChain(k+1, swapped)
	if !slices.Equal(fresh.Q.RowPtr, c.Q.RowPtr) || !slices.Equal(fresh.Q.ColIdx, c.Q.ColIdx) ||
		!bitsEqual(fresh.ExitRate, c.ExitRate) {
		t.Fatal("swapped chain changed the pattern or an exit rate")
	}
	copy(c.Q.Val, fresh.Q.Val)

	gotPi, err := c.SteadyState(SteadyStateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantPi, err := fresh.SteadyState(SteadyStateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(gotPi, wantPi) {
		t.Error("SteadyState after in-place mutation differs from a fresh chain")
	}
	got, err := c.TransientSeries(c.PointMass(0), times, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.TransientSeries(fresh.PointMass(0), times, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !bitsEqual(got[i], want[i]) {
			t.Errorf("TransientSeries after in-place mutation differs from a fresh chain at t=%g", times[i])
			break
		}
	}
	gotCDF, err := c.FirstPassageCDF(c.PointMass(0), targets, times, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	wantCDF, err := fresh.FirstPassageCDF(fresh.PointMass(0), targets, times, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(gotCDF.Probs, wantCDF.Probs) {
		t.Errorf("FirstPassageCDF after in-place mutation differs from a fresh chain:\n got %v\nwant %v", gotCDF.Probs, wantCDF.Probs)
	}
}
