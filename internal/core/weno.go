package core

// Fifth-order Weighted Essentially Non-Oscillatory reconstruction
// (Jiang & Shu 1996, paper ref. [42]), scalar variant. The vector variant
// lives in weno_qpx.go and the micro-fused WENO+HLLE path in rhs drivers.

// wenoEps regularizes the smoothness indicators.
const wenoEps = 1e-6

// WENO5 ideal weights.
const (
	d0 = 0.1
	d1 = 0.6
	d2 = 0.3
)

// wenoPair reconstructs both face values of cell i from the five cell
// averages a..e = v[i-2..i+2]: m is the left-biased ("minus") state at face
// i+1/2 and p the right-biased ("plus") state at face i-1/2. The two share
// their stencil, so the smoothness indicators are computed once; p is the
// mirror image of m, with the ideal weights d0 and d2 swapped.
//
// The nonlinear weights α_k = d_k/(ε+β_k)² are written in product form,
// α_k ∝ d_k·∏_{j≠k}(ε+β_j)², so both reconstructions share the pair
// products and each normalizes with a single division. Everything is
// expressed through the four undivided differences of the stencil, and the
// candidate polynomials as offsets from c, so a constant state
// reconstructs exactly.
func wenoPair(a, b, c, d, e float64) (m, p float64) {
	dab, dbc, dcd, dde := a-b, b-c, c-d, d-e
	// Smoothness indicators of the left, centered and right substencils,
	// regularized and squared: s_k = (ε+β_k)².
	t1 := dab - dbc  // a - 2b + c
	t2 := t1 - 2*dbc // a - 4b + 3c
	s0 := wenoEps + (13.0/12.0*t1*t1 + 0.25*t2*t2)
	t1 = dbc - dcd // b - 2c + d
	t2 = dbc + dcd // b - d
	s1 := wenoEps + (13.0/12.0*t1*t1 + 0.25*t2*t2)
	t1 = dcd - dde  // c - 2d + e
	t2 = t1 + 2*dcd // 3c - 4d + e
	s2 := wenoEps + (13.0/12.0*t1*t1 + 0.25*t2*t2)
	s0 *= s0
	s1 *= s1
	s2 *= s2
	// Pair products: P_k = ∏_{j≠k} (ε+β_j)².
	p0 := s1 * s2
	p1 := s0 * s2
	p2 := s0 * s1
	// Minus state at i+1/2 from substencils {a,b,c}, {b,c,d}, {c,d,e},
	// whose candidates are c + (2a-7b+5c)/6, c + (-b-c+2d)/6 and
	// c + (-4c+5d-e)/6.
	w0, w1, w2 := d0*p0, d1*p1, d2*p2
	m = c + (w0*(2*dab-5*dbc)+w1*(-dbc-2*dcd)+w2*(dde-4*dcd))/(6*(w0+w1+w2))
	// Plus state at i-1/2: the mirrored substencils {e,d,c}, {d,c,b},
	// {c,b,a} carry the indicators β2, β1, β0.
	w0, w2 = d0*p2, d2*p0
	p = c + (w0*(5*dcd-2*dde)+w1*(dcd+2*dbc)+w2*(4*dbc-dab))/(6*(w0+w1+w2))
	return m, p
}
