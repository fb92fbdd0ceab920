// Package poisson computes truncated Poisson probability weights for the
// uniformization (Jensen's method) transient solver in internal/ctmc,
// following the spirit of the Fox–Glynn algorithm: weights are produced in
// a numerically stable way for large rates and truncated once the
// accumulated mass reaches 1-epsilon.
package poisson

import (
	"fmt"
	"math"
)

// Weights holds Poisson(lambda) probabilities for k in [Left, Right].
type Weights struct {
	Lambda      float64
	Left, Right int
	P           []float64 // P[k-Left] = Poisson pmf at k
	TotalMass   float64   // sum of P, >= 1-epsilon
}

// Pmf returns the Poisson probability of k under the truncation (zero
// outside [Left, Right]).
func (w *Weights) Pmf(k int) float64 {
	if k < w.Left || k > w.Right {
		return 0
	}
	return w.P[k-w.Left]
}

// Compute returns truncated Poisson(lambda) weights capturing at least
// 1-eps of the probability mass. For lambda == 0 the distribution is a
// point mass at 0; a negative or non-finite lambda is an error.
func Compute(lambda, eps float64) (*Weights, error) {
	// The outward walks below stop only on an ordered comparison, which
	// never holds for NaN; a non-finite rate would walk (and grow) forever.
	if math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		return nil, fmt.Errorf("poisson: rate %g is not finite", lambda)
	}
	if lambda < 0 {
		return nil, fmt.Errorf("poisson: negative rate %g", lambda)
	}
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("poisson: eps must be in (0,1), got %g", eps)
	}
	if lambda == 0 {
		return &Weights{Lambda: 0, Left: 0, Right: 0, P: []float64{1}, TotalMass: 1}, nil
	}
	mode := int(math.Floor(lambda))
	// Compute log pmf at the mode via Stirling-stable lgamma, then walk
	// outward multiplying by the pmf recurrence. This avoids overflow for
	// large lambda.
	logPmf := func(k int) float64 {
		fk := float64(k)
		lg, _ := math.Lgamma(fk + 1)
		return -lambda + fk*math.Log(lambda) - lg
	}
	pMode := math.Exp(logPmf(mode))
	if pMode == 0 {
		// Extremely large lambda: fall back to a normal-approximation window
		// and compute each pmf in log space.
		sd := math.Sqrt(lambda)
		left := int(math.Max(0, math.Floor(lambda-8*sd)))
		right := int(math.Ceil(lambda + 8*sd))
		w := &Weights{Lambda: lambda, Left: left, Right: right}
		w.P = make([]float64, right-left+1)
		for k := left; k <= right; k++ {
			w.P[k-left] = math.Exp(logPmf(k))
			w.TotalMass += w.P[k-left]
		}
		if w.TotalMass < 1-eps {
			return nil, fmt.Errorf("poisson: window failed to capture mass for lambda=%g (got %g)", lambda, w.TotalMass)
		}
		return w, nil
	}
	// Walk down from the mode.
	var lower []float64 // lower[i] = pmf(mode-1-i)
	p := pMode
	for k := mode; k > 0; k-- {
		p = p * float64(k) / lambda
		if p < pMode*1e-18 {
			break
		}
		lower = append(lower, p)
	}
	left := mode - len(lower)
	// Walk up from the mode.
	var upper []float64 // upper[i] = pmf(mode+1+i)
	p = pMode
	for k := mode + 1; ; k++ {
		p = p * lambda / float64(k)
		if p < pMode*1e-18 {
			break
		}
		upper = append(upper, p)
	}
	right := mode + len(upper)
	w := &Weights{Lambda: lambda, Left: left, Right: right}
	w.P = make([]float64, right-left+1)
	for i, v := range lower {
		w.P[mode-left-1-i] = v
	}
	w.P[mode-left] = pMode
	for i, v := range upper {
		w.P[mode-left+1+i] = v
	}
	for _, v := range w.P {
		w.TotalMass += v
	}
	// The window covers all but a ~1e-18-relative tail, so its true mass
	// is 1 to well below any permitted eps; any visible deficit is
	// floating-point error in the pmf anchor (the log-space exponent grows
	// with lambda and exp() amplifies its absolute error). Normalize so
	// the subsequent eps-budgeted trimming is exact.
	if w.TotalMass > 0.5 && math.Abs(w.TotalMass-1) < 1e-6 {
		scale := 1 / w.TotalMass
		for i := range w.P {
			w.P[i] *= scale
		}
		w.TotalMass = 0
		for _, v := range w.P {
			w.TotalMass += v
		}
	}
	// Trim tails while keeping >= 1-eps mass, trimming the smaller tail
	// entry first for a tight window.
	budget := w.TotalMass - (1 - eps)
	lo, hi := 0, len(w.P)-1
	for lo < hi && budget > 0 {
		if w.P[lo] <= w.P[hi] {
			if w.P[lo] > budget {
				break
			}
			budget -= w.P[lo]
			lo++
		} else {
			if w.P[hi] > budget {
				break
			}
			budget -= w.P[hi]
			hi--
		}
	}
	trimmed := &Weights{Lambda: lambda, Left: left + lo, Right: left + hi}
	trimmed.P = append([]float64(nil), w.P[lo:hi+1]...)
	for _, v := range trimmed.P {
		trimmed.TotalMass += v
	}
	if trimmed.TotalMass < 1-eps {
		return nil, fmt.Errorf("poisson: truncation lost too much mass for lambda=%g (kept %g)", lambda, trimmed.TotalMass)
	}
	return trimmed, nil
}
