// Package powerlaw fits y = C * x^alpha relations by least squares in
// log-log space. The paper's central empirical observation — Figure 1's
// type-token law U ∝ N^0.64 with R² = 1.00 — is produced by exactly this
// fit, and the asymptotic complexity claims of §III-A plug the fitted
// exponent alpha into Θ((GK)^alpha · ((GK)^(1-alpha) + D)).
package powerlaw

import (
	"errors"
	"fmt"
	"math"
)

// Fit is the result of a power-law regression y = C * x^Alpha.
type Fit struct {
	// Alpha is the fitted exponent (slope in log-log space).
	Alpha float64
	// C is the fitted prefactor (exp of the log-log intercept).
	C float64
	// R2 is the coefficient of determination in log-log space.
	R2 float64
	// N is the number of points used.
	N int
}

// ErrInsufficientData is returned when fewer than two usable points exist.
var ErrInsufficientData = errors.New("powerlaw: need at least 2 positive points")

// FitXY fits y = C*x^alpha to the given points. Points with non-positive x
// or y are skipped (logs are undefined there). Returns
// ErrInsufficientData when fewer than two usable points remain.
func FitXY(xs, ys []float64) (Fit, error) {
	if len(xs) != len(ys) {
		return Fit{}, fmt.Errorf("powerlaw: len(xs)=%d != len(ys)=%d", len(xs), len(ys))
	}
	var sx, sy, sxx, sxy, syy float64
	n := 0
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			continue
		}
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
		syy += ly * ly
		n++
	}
	if n < 2 {
		return Fit{}, ErrInsufficientData
	}
	fn := float64(n)
	den := fn*sxx - sx*sx
	if den == 0 {
		return Fit{}, errors.New("powerlaw: degenerate x values")
	}
	alpha := (fn*sxy - sx*sy) / den
	intercept := (sy - alpha*sx) / fn

	// R² = 1 - SS_res/SS_tot in log space.
	meanY := sy / fn
	ssTot := syy - fn*meanY*meanY
	// SS_res = sum((ly - (alpha*lx + b))^2); expand using accumulated sums.
	ssRes := syy - 2*alpha*sxy - 2*intercept*sy + alpha*alpha*sxx + 2*alpha*intercept*sx + fn*intercept*intercept
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
		if r2 < 0 {
			r2 = 0
		}
	}
	return Fit{Alpha: alpha, C: math.Exp(intercept), R2: r2, N: n}, nil
}

// String formats the fit the way the paper annotates Figure 1
// ("y = 7.02x^0.64, R² = 1.00").
func (f Fit) String() string {
	return fmt.Sprintf("y = %.2fx^%.2f, R² = %.2f", f.C, f.Alpha, f.R2)
}
