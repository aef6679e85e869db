package powerlaw

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"zipflm/internal/rng"
)

func TestExactPowerLawRecovered(t *testing.T) {
	// y = 7.02 * x^0.64, the exact annotation of Figure 1.
	xs := []float64{5e2, 5e3, 5e4, 5e5, 5e6, 5e7}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 7.02 * math.Pow(x, 0.64)
	}
	fit, err := FitXY(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-0.64) > 1e-9 {
		t.Errorf("alpha = %v, want 0.64", fit.Alpha)
	}
	if math.Abs(fit.C-7.02) > 1e-6 {
		t.Errorf("C = %v, want 7.02", fit.C)
	}
	if fit.R2 < 1-1e-12 {
		t.Errorf("R² = %v, want 1", fit.R2)
	}
}

func TestNoisyFitApproximate(t *testing.T) {
	r := rng.New(9)
	xs := make([]float64, 50)
	ys := make([]float64, 50)
	for i := range xs {
		xs[i] = math.Pow(10, 2+float64(i)*0.1)
		ys[i] = 3 * math.Pow(xs[i], 0.7) * math.Exp(r.NormFloat64()*0.05)
	}
	fit, err := FitXY(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-0.7) > 0.03 {
		t.Errorf("alpha = %v, want ~0.7", fit.Alpha)
	}
	if fit.R2 < 0.98 {
		t.Errorf("R² = %v, want > 0.98 for mild noise", fit.R2)
	}
}

func TestSkipsNonPositive(t *testing.T) {
	xs := []float64{-1, 0, 10, 100, 1000}
	ys := []float64{5, 5, 2, 4, 8}
	fit, err := FitXY(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if fit.N != 3 {
		t.Errorf("used %d points, want 3", fit.N)
	}
	// y doubles per decade => alpha = log10(2).
	if math.Abs(fit.Alpha-math.Log10(2)) > 1e-9 {
		t.Errorf("alpha = %v, want %v", fit.Alpha, math.Log10(2))
	}
}

func TestErrors(t *testing.T) {
	if _, err := FitXY([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch must error")
	}
	if _, err := FitXY([]float64{1}, []float64{1}); err != ErrInsufficientData {
		t.Errorf("single point: got %v, want ErrInsufficientData", err)
	}
	if _, err := FitXY([]float64{5, 5, 5}, []float64{1, 2, 3}); err == nil {
		t.Error("degenerate x must error")
	}
}

func TestStringFormat(t *testing.T) {
	fit := Fit{Alpha: 0.64, C: 7.02, R2: 0.999}
	s := fit.String()
	if !strings.Contains(s, "7.02") || !strings.Contains(s, "0.64") {
		t.Errorf("String() = %q", s)
	}
}

// TestFitRecoveryProperty: for any (alpha, C) in a reasonable band, a
// noiseless fit must recover the parameters.
func TestFitRecoveryProperty(t *testing.T) {
	f := func(aRaw, cRaw uint16) bool {
		alpha := 0.1 + float64(aRaw%150)/100 // 0.1 .. 1.59
		c := 0.5 + float64(cRaw%100)/10      // 0.5 .. 10.4
		xs := []float64{10, 100, 1e3, 1e4, 1e5}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = c * math.Pow(x, alpha)
		}
		fit, err := FitXY(xs, ys)
		if err != nil {
			return false
		}
		return math.Abs(fit.Alpha-alpha) < 1e-6 && math.Abs(fit.C-c)/c < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
