package core

import "cubism/internal/grid"

// RHS is a reusable per-worker workspace that evaluates the right-hand side
// of the governing equations for one block (the paper's RHS kernel).
//
// The evaluation follows the paper's computation reordering (§5, Figure 2):
// the kernel operates on 2D slices in the z-direction held in a ring
// buffer, performs directional sweeps to evaluate the x-, y- and z-fluxes,
// and writes the result back to the block's temporary area (BACK stage).
//
// Two code paths implement the WENO→HLLE pipeline:
//
//   - the micro-fused path (default) evaluates the reconstruction and the
//     numerical flux per face in one pass, mixing the instructions of
//     subsequent computational stages to increase temporal locality;
//   - the staged path materializes all reconstructed face states of a sweep
//     before running HLLE, the non-fused baseline of Table 9.
//
// The accumulator and flux planes are SoA so the scalar and vector drivers
// share all bookkeeping; the BACK stage converts to the block's AoS layout.
type RHS struct {
	N      int
	Staged bool // use the non-fused WENO→HLLE baseline path

	ring *Ring
	// acc[q] accumulates the flux differences of quantity q; cell-major
	// layout (z*N+y)*N+x, length N³.
	acc [nq][]float64
	// z-face flux planes (N² each) at the low and high face of the layer.
	zPrev, zCur *fluxPlane
	// Per-row face flux buffer, padded to a multiple of the vector width.
	row *fluxPlane
	// Per-row reconstructed face states for the staged path: 7 quantities,
	// minus and plus side.
	stM, stP [nq][]float64
	// zM carries the minus states of the next z-face (7 quantities, N²
	// each) from one computeZFace to the next.
	zM [nq][]float64
}

// fluxPlane holds HLLE outputs in SoA layout: the seven fluxes in sweep
// order (mass, normal momentum, two tangential momenta, energy, Γ, Π) plus
// the face velocity for the non-conservative term.
type fluxPlane struct {
	fr, fun, fut1, fut2, fe, fg, fpi, ustar []float64
}

func newFluxPlane(n int) *fluxPlane {
	backing := make([]float64, 8*n)
	return &fluxPlane{
		fr:    backing[0*n : 1*n],
		fun:   backing[1*n : 2*n],
		fut1:  backing[2*n : 3*n],
		fut2:  backing[3*n : 4*n],
		fe:    backing[4*n : 5*n],
		fg:    backing[5*n : 6*n],
		fpi:   backing[6*n : 7*n],
		ustar: backing[7*n : 8*n],
	}
}

// NewRHS allocates a workspace for blocks of edge n.
func NewRHS(n int) *RHS {
	r := &RHS{
		N:     n,
		ring:  NewRing(n),
		zPrev: newFluxPlane(n * n),
		zCur:  newFluxPlane(n * n),
		row:   newFluxPlane((n + 1 + 3) &^ 3),
	}
	for q := 0; q < nq; q++ {
		r.acc[q] = make([]float64, n*n*n)
		r.stM[q] = make([]float64, (n+1+3)&^3)
		r.stP[q] = make([]float64, (n+1+3)&^3)
		r.zM[q] = make([]float64, n*n)
	}
	return r
}

// Compute evaluates the RHS of the block assembled in lab with grid spacing
// h and stores dU/dt into out (block AoS layout, N³ x nq float32).
func (r *RHS) Compute(lab *grid.Lab, h float64, out []float32) {
	n := r.N
	if len(out) != n*n*n*nq {
		panic("core: rhs output size mismatch")
	}
	r.sweep(lab)
	r.back(h, out)
}

// ComputeFused evaluates the RHS and immediately applies the low-storage RK
// update stage (reg ← a·reg + dt·rhs, u ← u + b·reg) while the accumulators
// are cache-resident: the rhs value is consumed in-register instead of
// round-tripping through the block's temporary area. It rounds the rhs
// through float32 exactly like the BACK stage, so the result is bitwise
// identical to Compute followed by UpdateScalar.
func (r *RHS) ComputeFused(lab *grid.Lab, h float64, u, reg []float32, a, b, dt float64) {
	n := r.N
	if len(u) != n*n*n*nq || len(reg) != len(u) {
		panic("core: fused rhs+up buffer size mismatch")
	}
	r.sweep(lab)
	r.backFused(h, u, reg, a, b, dt)
}

// sweep runs the directional flux sweeps over the lab, filling the SoA
// accumulators with the summed flux differences (everything up to BACK).
func (r *RHS) sweep(lab *grid.Lab) {
	n := r.N
	for q := 0; q < nq; q++ {
		clear(r.acc[q])
	}

	// Prime the ring with the low-side ghost slices and the first interior
	// slices, then bootstrap the z-face flux at the domain-low face.
	for z := -sw; z <= sw-1; z++ {
		r.ring.Load(lab, z)
	}
	r.bootstrapZ()
	r.computeZFace(0, r.zPrev)

	for z := 0; z < n; z++ {
		r.ring.Load(lab, z+sw)
		r.xSweep(z)
		r.ySweep(z)
		r.computeZFace(z+1, r.zCur)
		r.accumulateZ(z)
		r.zPrev, r.zCur = r.zCur, r.zPrev
	}
}

// back is the BACK stage: scale the SoA accumulators by 1/h and write the
// result into the block's AoS temporary area.
func (r *RHS) back(h float64, out []float32) {
	invH := 1 / h
	ncells := r.N * r.N * r.N
	for q := 0; q < nq; q++ {
		a := r.acc[q]
		for i := 0; i < ncells; i++ {
			out[i*nq+q] = float32(a[i] * invH)
		}
	}
}

// backFused is the fused BACK+UP stage: the scaled accumulator value is
// narrowed to float32 (the same rounding point back applies on its way to
// memory) and fed straight into the RK update arithmetic of UpdateScalar.
func (r *RHS) backFused(h float64, u, reg []float32, ca, cb, dt float64) {
	invH := 1 / h
	ncells := r.N * r.N * r.N
	for q := 0; q < nq; q++ {
		a := r.acc[q]
		for i := 0; i < ncells; i++ {
			idx := i*nq + q
			rhs := float32(a[i] * invH)
			rr := ca*float64(reg[idx]) + dt*float64(rhs)
			reg[idx] = float32(rr)
			u[idx] = float32(float64(u[idx]) + cb*rr)
		}
	}
}

// reconstructCell reconstructs the two face states of the cell at slice
// offset i of a sweep with stride st: m at its high face, p at its low face
// (wenoPair on every quantity).
//
// Positivity safeguard: when the high-order reconstruction produces a
// non-physical state (negative density or a pressure below the stiffened
// vacuum, (Γ+1)p + Π <= 0, where the sound speed would be imaginary) the
// face falls back to the adjacent cell average — a local first-order
// reconstruction, the standard remedy for under-resolved violent collapses.
// Both states are adjacent to cell i itself, so both fall back to it.
func reconstructCell(zs *ZSlice, i, st int, un, ut1, ut2 []float64) (m, p faceState) {
	a, b, c, d := i-2*st, i-st, i+st, i+2*st
	m.r, p.r = wenoPair(zs.R[a], zs.R[b], zs.R[i], zs.R[c], zs.R[d])
	m.un, p.un = wenoPair(un[a], un[b], un[i], un[c], un[d])
	m.ut1, p.ut1 = wenoPair(ut1[a], ut1[b], ut1[i], ut1[c], ut1[d])
	m.ut2, p.ut2 = wenoPair(ut2[a], ut2[b], ut2[i], ut2[c], ut2[d])
	m.p, p.p = wenoPair(zs.P[a], zs.P[b], zs.P[i], zs.P[c], zs.P[d])
	m.g, p.g = wenoPair(zs.G[a], zs.G[b], zs.G[i], zs.G[c], zs.G[d])
	m.pi, p.pi = wenoPair(zs.Pi[a], zs.Pi[b], zs.Pi[i], zs.Pi[c], zs.Pi[d])
	if !physical(m) {
		m = faceState{r: zs.R[i], un: un[i], ut1: ut1[i], ut2: ut2[i], p: zs.P[i], g: zs.G[i], pi: zs.Pi[i]}
	}
	if !physical(p) {
		p = faceState{r: zs.R[i], un: un[i], ut1: ut1[i], ut2: ut2[i], p: zs.P[i], g: zs.G[i], pi: zs.Pi[i]}
	}
	return
}

// physical reports whether a reconstructed face state admits a real sound
// speed and positive density.
func physical(s faceState) bool {
	return s.r > 0 && (s.g+1)*s.p+s.pi > 0 && s.g > 0
}

// lineSweep evaluates all face fluxes of one pencil of n cells (n+1 faces)
// into r.row. o is the slice offset of cell 0 and st the stencil stride.
//
// The sweep walks cells -1..n: cell i yields the minus state of face i+1
// and the plus state of face i, so face f pairs the minus state carried
// from cell f-1 with the plus state of cell f.
func (r *RHS) lineSweep(zs *ZSlice, o, st int, un, ut1, ut2 []float64) {
	n := r.N
	if r.Staged {
		// WENO stage: materialize all reconstructed face states.
		for c := -1; c <= n; c++ {
			m, p := reconstructCell(zs, o+c*st, st, un, ut1, ut2)
			if c < n {
				storeState(&r.stM, c+1, m)
			}
			if c >= 0 {
				storeState(&r.stP, c, p)
			}
		}
		// HLLE stage.
		for f := 0; f <= n; f++ {
			r.row.store(f, hlleFace(loadState(&r.stM, f), loadState(&r.stP, f)))
		}
		return
	}
	// Micro-fused path: reconstruction and flux per face in one pass.
	m, _ := reconstructCell(zs, o-st, st, un, ut1, ut2)
	for f := 0; f <= n; f++ {
		next, p := reconstructCell(zs, o+f*st, st, un, ut1, ut2)
		r.row.store(f, hlleFace(m, p))
		m = next
	}
}

func storeState(dst *[nq][]float64, f int, s faceState) {
	dst[0][f], dst[1][f], dst[2][f], dst[3][f] = s.r, s.un, s.ut1, s.ut2
	dst[4][f], dst[5][f], dst[6][f] = s.p, s.g, s.pi
}

func loadState(src *[nq][]float64, f int) faceState {
	return faceState{
		r: src[0][f], un: src[1][f], ut1: src[2][f], ut2: src[3][f],
		p: src[4][f], g: src[5][f], pi: src[6][f],
	}
}

// store writes one face flux into SoA position f.
func (fp *fluxPlane) store(f int, ff faceFlux) {
	fp.fr[f], fp.fun[f], fp.fut1[f], fp.fut2[f] = ff.fr, ff.fun, ff.fut1, ff.fut2
	fp.fe[f], fp.fg[f], fp.fpi[f], fp.ustar[f] = ff.fe, ff.fg, ff.fpi, ff.ustar
}

// load reads one face flux from SoA position f.
func (fp *fluxPlane) load(f int) faceFlux {
	return faceFlux{
		fr: fp.fr[f], fun: fp.fun[f], fut1: fp.fut1[f], fut2: fp.fut2[f],
		fe: fp.fe[f], fg: fp.fg[f], fpi: fp.fpi[f], ustar: fp.ustar[f],
	}
}

// accumulateRow adds the flux differences of one pencil from r.row (SUM
// stage). base is the accumulator index of cell 0 and step its stride along
// the pencil; so is the slice offset of cell 0 with stride sst; qn/qt1/qt2
// map the sweep-normal flux components to quantity indices.
func (r *RHS) accumulateRow(zs *ZSlice, base, step, so, sst, qn, qt1, qt2 int) {
	n := r.N
	row := r.row
	for i := 0; i < n; i++ {
		ai := base + i*step
		si := so + i*sst
		du := row.ustar[i+1] - row.ustar[i]
		r.acc[qr][ai] -= row.fr[i+1] - row.fr[i]
		r.acc[qn][ai] -= row.fun[i+1] - row.fun[i]
		r.acc[qt1][ai] -= row.fut1[i+1] - row.fut1[i]
		r.acc[qt2][ai] -= row.fut2[i+1] - row.fut2[i]
		r.acc[qe][ai] -= row.fe[i+1] - row.fe[i]
		r.acc[qg][ai] -= row.fg[i+1] - row.fg[i] - zs.G[si]*du
		r.acc[qp][ai] -= row.fpi[i+1] - row.fpi[i] - zs.Pi[si]*du
	}
}

// xSweep accumulates the x-direction flux differences of layer z.
func (r *RHS) xSweep(z int) {
	n := r.N
	zs := r.ring.At(z)
	for iy := 0; iy < n; iy++ {
		o := zs.Idx(0, iy)
		r.lineSweep(zs, o, 1, zs.U, zs.V, zs.W)
		r.accumulateRow(zs, (z*n+iy)*n, 1, o, 1, qu, qv, qw)
	}
}

// ySweep accumulates the y-direction flux differences of layer z.
func (r *RHS) ySweep(z int) {
	n := r.N
	zs := r.ring.At(z)
	for ix := 0; ix < n; ix++ {
		o := zs.Idx(ix, 0)
		r.lineSweep(zs, o, zs.S, zs.V, zs.U, zs.W)
		r.accumulateRow(zs, z*n*n+ix, n, o, zs.S, qv, qu, qw)
	}
}

// zPair reconstructs the two z-face states of cell i of layer z (slices
// s[0..4] hold layers z-2..z+2): m at face z+1, p at face z, with the
// positivity fallback of reconstructCell.
func zPair(s *[5]*ZSlice, i int) (m, p faceState) {
	m.r, p.r = wenoPair(s[0].R[i], s[1].R[i], s[2].R[i], s[3].R[i], s[4].R[i])
	m.un, p.un = wenoPair(s[0].W[i], s[1].W[i], s[2].W[i], s[3].W[i], s[4].W[i])
	m.ut1, p.ut1 = wenoPair(s[0].U[i], s[1].U[i], s[2].U[i], s[3].U[i], s[4].U[i])
	m.ut2, p.ut2 = wenoPair(s[0].V[i], s[1].V[i], s[2].V[i], s[3].V[i], s[4].V[i])
	m.p, p.p = wenoPair(s[0].P[i], s[1].P[i], s[2].P[i], s[3].P[i], s[4].P[i])
	m.g, p.g = wenoPair(s[0].G[i], s[1].G[i], s[2].G[i], s[3].G[i], s[4].G[i])
	m.pi, p.pi = wenoPair(s[0].Pi[i], s[1].Pi[i], s[2].Pi[i], s[3].Pi[i], s[4].Pi[i])
	c := s[2]
	if !physical(m) {
		m = faceState{r: c.R[i], un: c.W[i], ut1: c.U[i], ut2: c.V[i], p: c.P[i], g: c.G[i], pi: c.Pi[i]}
	}
	if !physical(p) {
		p = faceState{r: c.R[i], un: c.W[i], ut1: c.U[i], ut2: c.V[i], p: c.P[i], g: c.G[i], pi: c.Pi[i]}
	}
	return
}

// zSlices returns the ring slices of layers z-2..z+2.
func (r *RHS) zSlices(z int) (s [5]*ZSlice) {
	for k := range s {
		s[k] = r.ring.At(z - 2 + k)
	}
	return s
}

// bootstrapZ fills the carried minus plane r.zM with the states at z-face 0
// reconstructed from layer -1.
func (r *RHS) bootstrapZ() {
	n := r.N
	s := r.zSlices(-1)
	for iy := 0; iy < n; iy++ {
		o := s[0].Idx(0, iy)
		for ix := 0; ix < n; ix++ {
			m, _ := zPair(&s, o+ix)
			storeState(&r.zM, iy*n+ix, m)
		}
	}
}

// computeZFace fills dst with the HLLE fluxes across z-face f (between
// layers f-1 and f). The minus states come from r.zM, carried from layer
// f-1; layer f's reconstruction supplies the plus states and replaces them
// with the minus states of face f+1.
func (r *RHS) computeZFace(f int, dst *fluxPlane) {
	n := r.N
	s := r.zSlices(f)
	for iy := 0; iy < n; iy++ {
		o := s[0].Idx(0, iy)
		for ix := 0; ix < n; ix++ {
			j := iy*n + ix
			next, p := zPair(&s, o+ix)
			dst.store(j, hlleFace(loadState(&r.zM, j), p))
			storeState(&r.zM, j, next)
		}
	}
}

// accumulateZ adds the z-direction flux differences of layer z using the
// face planes zPrev (face z) and zCur (face z+1).
func (r *RHS) accumulateZ(z int) {
	n := r.N
	zs := r.ring.At(z)
	lo, hi := r.zPrev, r.zCur
	for iy := 0; iy < n; iy++ {
		o := zs.Idx(0, iy)
		base := (z*n + iy) * n
		for ix := 0; ix < n; ix++ {
			j := iy*n + ix
			ai := base + ix
			si := o + ix
			du := hi.ustar[j] - lo.ustar[j]
			r.acc[qr][ai] -= hi.fr[j] - lo.fr[j]
			r.acc[qw][ai] -= hi.fun[j] - lo.fun[j]
			r.acc[qu][ai] -= hi.fut1[j] - lo.fut1[j]
			r.acc[qv][ai] -= hi.fut2[j] - lo.fut2[j]
			r.acc[qe][ai] -= hi.fe[j] - lo.fe[j]
			r.acc[qg][ai] -= hi.fg[j] - lo.fg[j] - zs.G[si]*du
			r.acc[qp][ai] -= hi.fpi[j] - lo.fpi[j] - zs.Pi[si]*du
		}
	}
}
