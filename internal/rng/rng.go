// Package rng provides a small, seedable, deterministic pseudo-random
// number generator (an xoshiro256** variant) used by the Gillespie SSA
// simulator and workload generators.
//
// The point of hand-rolling rather than using math/rand is bit-for-bit
// reproducibility across Go releases: the container-reproducibility harness
// compares stochastic-simulation output byte-for-byte between native and
// containerized runs, so the stream must be fully specified by this
// package.
package rng

import "math"

// Source is a deterministic xoshiro256** generator.
type Source struct {
	s [4]uint64
}

// New returns a generator seeded from a single 64-bit seed using
// SplitMix64 to fill the state, as recommended by the xoshiro authors.
func New(seed uint64) *Source {
	r := &Source{}
	sm := seed
	next := func() uint64 {
		sm += 0x9E3779B97F4A7C15
		z := sm
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	// Avoid the all-zero state (cannot occur from SplitMix64, but guard).
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive bound")
	}
	// Lemire-style bounded generation without modulo bias for the common
	// case; fall back to rejection for tiny tail bias.
	bound := uint64(n)
	threshold := (-bound) % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (r *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	u := r.Float64()
	// 1-u is in (0,1], so the log is finite.
	return -math.Log(1-u) / rate
}

// Choose picks an index in [0, len(weights)) with probability proportional
// to weights[i]. The total must be positive; negative weights panic.
func (r *Source) Choose(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("rng: Choose with negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: Choose with zero total weight")
	}
	u := r.Float64() * total
	var acc float64
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	// Floating-point slack: return the last positive-weight index.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	return len(weights) - 1
}
