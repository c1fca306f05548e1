package grid

import "cubism/internal/physics"

// Lab is the per-worker scratch structure that assembles one block together
// with its ghost cells before a stencil evaluation (the paper's node layer:
// "the assigned thread loads the block data and ghosts into a per-thread
// dedicated buffer"). It mirrors CUBISM's BlockLab.
//
// The buffer extends the N³ block by StencilWidth cells on each side. Only
// the face slabs of the extension are filled (the "cross" region); corner
// and edge regions are never read by the directional WENO sweeps.
type Lab struct {
	N    int       // block cells per dimension
	M    int       // buffer extent: N + 2*StencilWidth
	Data []float32 // AoS, ((lz*M+ly)*M+lx)*NQ + q
}

// NewLab allocates a lab for blocks of N³ cells.
func NewLab(n int) *Lab {
	m := n + 2*StencilWidth
	return &Lab{N: n, M: m, Data: make([]float32, m*m*m*NQ)}
}

// offset returns the float32 offset of stencil coordinates (ix,iy,iz) in
// [-StencilWidth, N+StencilWidth).
func (l *Lab) offset(ix, iy, iz int) int {
	lx, ly, lz := ix+StencilWidth, iy+StencilWidth, iz+StencilWidth
	return ((lz*l.M+ly)*l.M + lx) * NQ
}

// At returns the NQ quantities of cell (ix,iy,iz); coordinates may extend
// StencilWidth cells beyond the block in the face-slab (cross) region.
func (l *Lab) At(ix, iy, iz int) []float32 {
	off := l.offset(ix, iy, iz)
	return l.Data[off : off+NQ : off+NQ]
}

// Get returns quantity q of cell (ix,iy,iz).
func (l *Lab) Get(ix, iy, iz, q int) float32 {
	return l.Data[l.offset(ix, iy, iz)+q]
}

// Row returns the contiguous AoS row of cells (x0..x0+n-1, iy, iz).
func (l *Lab) Row(x0, iy, iz, n int) []float32 {
	off := l.offset(x0, iy, iz)
	return l.Data[off : off+n*NQ : off+n*NQ]
}

// Load assembles block b of grid g with its ghosts under boundary
// conditions bc. Interior data is row-copied. Each of the six face slabs
// reads all its ghosts from one source, resolved once per face (faceSource)
// and then copied whole cells at a time: a reflecting/absorbing boundary
// condition when the face lies on a non-periodic domain face (mirror and
// clamp land back in b itself), else the neighbor block across the face —
// periodic wraps included, so a wrapped neighbor behaves exactly like an
// interior one — when it is locally owned, and finally the per-block halo
// slab installed by the cluster layer for neighbors owned by another rank.
func (l *Lab) Load(g *Grid, bc BC, b *Block) {
	if b.N != l.N {
		panic("grid: lab/block size mismatch")
	}
	n := l.N

	// Interior: straight row copies.
	for iz := 0; iz < n; iz++ {
		for iy := 0; iy < n; iy++ {
			copy(l.Row(0, iy, iz, n), b.row(0, iy, iz, n))
		}
	}
	for f := XLo; f <= ZHi; f++ {
		l.loadFace(g, bc, b, f)
	}
}

// loadFace fills the face slab f of the cross region: StencilWidth layers
// beyond face f over the block's N x N tangent plane. Exactly one
// block-local coordinate lies outside [0,N), the one along f's axis.
// Copies run along x: whole rows of N cells for the y and z faces, single
// cells for the x faces (whose x extent is the stencil depth).
func (l *Lab) loadFace(g *Grid, bc BC, b *Block, f Face) {
	n, sw := l.N, StencilWidth
	a := f.Axis()
	lo, hi := [3]int{0, 0, 0}, [3]int{n, n, n}
	if f.IsHigh() {
		lo[a], hi[a] = n, n+sw
	} else {
		lo[a], hi[a] = -sw, 0
	}
	run := n
	if a == 0 {
		run = 1
	}
	nb, halo := g.faceSource(bc, b, f)
	flip := physics.QU + a // normal momentum, negated by a reflecting wall
	for iz := lo[2]; iz < hi[2]; iz++ {
		for iy := lo[1]; iy < hi[1]; iy++ {
			for ix := lo[0]; ix < hi[0]; ix += run {
				dst := l.Row(ix, iy, iz, run)
				switch {
				case nb != nil:
					copy(dst, nb.row((ix+n)%n, (iy+n)%n, (iz+n)%n, run))
				case halo != nil:
					copy(dst, halo[haloOffset(f, n, ix, iy, iz):])
				case bc[f] == Reflecting:
					copy(dst, b.row(mirror(ix, n), mirror(iy, n), mirror(iz, n), run))
					for i := flip; i < len(dst); i += NQ {
						dst[i] = -dst[i]
					}
				default: // Absorbing: the nearest interior cell.
					copy(dst, b.row(clamp(ix, n), clamp(iy, n), clamp(iz, n), run))
				}
			}
		}
	}
}
