package core

import (
	"math"
	"math/rand"
	"testing"
)

// wenoMinus is the reference WENO5 reconstruction, one face value per call
// in the textbook normalized-weight form: the left-biased ("minus") face
// value at the interface i+1/2 from the five cell averages a..e =
// v[i-2..i+2]. It is the oracle wenoPair is checked against.
func wenoMinus(a, b, c, d, e float64) float64 {
	// Smoothness indicators.
	t1 := a - 2*b + c
	t2 := a - 4*b + 3*c
	b0 := 13.0/12.0*t1*t1 + 0.25*t2*t2
	t1 = b - 2*c + d
	t2 = b - d
	b1 := 13.0/12.0*t1*t1 + 0.25*t2*t2
	t1 = c - 2*d + e
	t2 = 3*c - 4*d + e
	b2 := 13.0/12.0*t1*t1 + 0.25*t2*t2
	// Nonlinear weights.
	w0 := d0 / ((wenoEps + b0) * (wenoEps + b0))
	w1 := d1 / ((wenoEps + b1) * (wenoEps + b1))
	w2 := d2 / ((wenoEps + b2) * (wenoEps + b2))
	inv := 1 / (w0 + w1 + w2)
	w0 *= inv
	w1 *= inv
	w2 *= inv
	// Candidate polynomials.
	q0 := (2*a - 7*b + 11*c) * (1.0 / 6.0)
	q1 := (-b + 5*c + 2*d) * (1.0 / 6.0)
	q2 := (2*c + 5*d - e) * (1.0 / 6.0)
	return w0*q0 + w1*q1 + w2*q2
}

// wenoPlus is the reference right-biased ("plus") face value at the
// interface i+1/2 from the five cell averages a..e = v[i-1..i+3], the
// mirror image of wenoMinus.
func wenoPlus(a, b, c, d, e float64) float64 {
	return wenoMinus(e, d, c, b, a)
}

// wenoPairStencils returns seeded random stencils plus the adversarial
// cases the product-form weights must survive: constants, unit steps,
// Π-scale jumps of 1e9, values near 1e-12 and magnitudes up to 1e12
// (where the squared pair products are largest).
func wenoPairStencils() [][5]float64 {
	cases := [][5]float64{
		{3, 3, 3, 3, 3},
		{0, 0, 0, 0, 0},
		{-7.5, -7.5, -7.5, -7.5, -7.5},
		{0, 0, 0, 1, 1},
		{0, 0, 1, 1, 1},
		{1, 1, 0, 0, 0},
		{0, 1, 0, 1, 0},
		{1, 1, 1, 1e9, 1e9},
		{1e9, 1e9, 1, 1, 1},
		{0, 0, 3e9, 3e9, 3e9},
		{1e-12, 1e-12, 1e-12, 1e-12, 1e-12},
		{1e-12, 2e-12, 0.5e-12, 3e-12, 1e-12},
		{-1e-12, 1e-12, -1e-12, 1e-12, -1e-12},
		{1e12, 1e12, 1e12, 1e12, 1e12},
		{1e12, -1e12, 1e12, -1e12, 1e12},
		{-1e12, 0, 1e12, 0, -1e12},
		{1e12, 1e12, 1, 1e-12, 0},
		{0, 1e-12, 1e12, -1e12, 1e3},
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 2000; i++ {
		scale := math.Pow(10, float64(rng.Intn(25)-12))
		var s [5]float64
		for k := range s {
			s[k] = scale * (2*rng.Float64() - 1)
			if i%3 == 0 {
				s[k] += scale // one-signed, like density or pressure
			}
		}
		cases = append(cases, s)
	}
	return cases
}

// TestWENOPairMatchesReference: both outputs of wenoPair equal the
// reference wenoMinus/wenoPlus within 1e-12 relative to the stencil's
// magnitude, and stay finite.
func TestWENOPairMatchesReference(t *testing.T) {
	for _, s := range wenoPairStencils() {
		a, b, c, d, e := s[0], s[1], s[2], s[3], s[4]
		m, p := wenoPair(a, b, c, d, e)
		wantM := wenoMinus(a, b, c, d, e)
		// The plus state at face i-1/2 reads v[i-2..i+2], i.e. wenoPlus
		// with its stencil shifted one cell left.
		wantP := wenoPlus(a, b, c, d, e)
		scale := 0.0
		for _, v := range s {
			scale = math.Max(scale, math.Abs(v))
		}
		for _, got := range []struct {
			name      string
			got, want float64
		}{{"minus", m, wantM}, {"plus", p, wantP}} {
			if math.IsNaN(got.got) || math.IsInf(got.got, 0) {
				t.Fatalf("wenoPair%v %s = %v, not finite", s, got.name, got.got)
			}
			if math.Abs(got.got-got.want) > 1e-12*scale {
				t.Errorf("wenoPair%v %s = %.17g, reference %.17g (rel %.3g)",
					s, got.name, got.got, got.want, math.Abs(got.got-got.want)/scale)
			}
		}
	}
}
