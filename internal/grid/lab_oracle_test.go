package grid

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"cubism/internal/physics"
)

// This file keeps the per-cell ghost resolver the copy-only Lab.Load
// replaced, as the oracle it is checked against bitwise: every ghost cell
// resolves its global coordinate, then the boundary condition per quantity
// (ghost) or the owning block through a map lookup, or the halo slab.

// ghost resolves quantity q of cell (ix,iy,iz) where exactly one coordinate
// lies outside the global domain [0,CellsX) x [0,CellsY) x [0,CellsZ)
// through the physical boundary condition of the crossed face. The periodic
// branch reads through g.Cell and therefore requires the wrapped cell to be
// owned.
func (g *Grid) ghost(bc BC, ix, iy, iz, q int) float32 {
	f, _ := g.outFace(ix, iy, iz)
	switch bc[f] {
	case Periodic:
		nx, ny, nz := g.CellsX(), g.CellsY(), g.CellsZ()
		return g.Cell((ix+nx)%nx, (iy+ny)%ny, (iz+nz)%nz, q)
	case Reflecting:
		mx, my, mz := mirror(ix, g.CellsX()), mirror(iy, g.CellsY()), mirror(iz, g.CellsZ())
		v := g.Cell(mx, my, mz, q)
		// Flip the momentum component normal to the face.
		if q == physics.QU+f.Axis() {
			v = -v
		}
		return v
	default: // Absorbing: clamp to the nearest interior cell.
		cx, cy, cz := clamp(ix, g.CellsX()), clamp(iy, g.CellsY()), clamp(iz, g.CellsZ())
		return g.Cell(cx, cy, cz, q)
	}
}

// outFace identifies which domain face the out-of-range coordinate crosses
// and how deep beyond it the cell lies (1-based).
func (g *Grid) outFace(ix, iy, iz int) (Face, int) {
	switch {
	case ix < 0:
		return XLo, -ix
	case ix >= g.CellsX():
		return XHi, ix - g.CellsX() + 1
	case iy < 0:
		return YLo, -iy
	case iy >= g.CellsY():
		return YHi, iy - g.CellsY() + 1
	case iz < 0:
		return ZLo, -iz
	default:
		return ZHi, iz - g.CellsZ() + 1
	}
}

// haloCell returns the NQ quantities of ghost cell (ix,iy,iz) in block-local
// stencil coordinates from the installed slab of the crossed face.
func (b *Block) haloCell(f Face, ix, iy, iz int) []float32 {
	n := b.N
	var d, u, v int
	switch f {
	case XLo:
		d, u, v = -ix-1, iy, iz
	case XHi:
		d, u, v = ix-n, iy, iz
	case YLo:
		d, u, v = -iy-1, ix, iz
	case YHi:
		d, u, v = iy-n, ix, iz
	case ZLo:
		d, u, v = -iz-1, ix, iy
	case ZHi:
		d, u, v = iz-n, ix, iy
	}
	if b.halos[f] == nil {
		panic(fmt.Sprintf("grid: block (%d,%d,%d) read face %v ghost with no halo installed", b.X, b.Y, b.Z, f))
	}
	off := ((d*n+v)*n + u) * NQ
	return b.halos[f][off : off+NQ : off+NQ]
}

// loadPerCell is the reference Lab.Load: interior row copies, then every
// ghost cell of the six face slabs resolved on its own.
func (l *Lab) loadPerCell(g *Grid, bc BC, b *Block) {
	n, sw := l.N, StencilWidth
	gx, gy, gz := b.X*n, b.Y*n, b.Z*n
	cx, cy, cz := g.CellsX(), g.CellsY(), g.CellsZ()
	for iz := 0; iz < n; iz++ {
		for iy := 0; iy < n; iy++ {
			copy(l.Row(0, iy, iz, n), b.Data[((iz*n+iy)*n)*NQ:((iz*n+iy)*n+n)*NQ])
		}
	}
	fillFace := func(f Face, x0, x1, y0, y1, z0, z1 int) {
		for iz := z0; iz < z1; iz++ {
			for iy := y0; iy < y1; iy++ {
				for ix := x0; ix < x1; ix++ {
					dst := l.At(ix, iy, iz)
					jx, jy, jz := gx+ix, gy+iy, gz+iz
					if jx < 0 || jx >= cx || jy < 0 || jy >= cy || jz < 0 || jz >= cz {
						if bc[f] != Periodic {
							for q := 0; q < NQ; q++ {
								dst[q] = g.ghost(bc, jx, jy, jz, q)
							}
							continue
						}
						jx, jy, jz = (jx+cx)%cx, (jy+cy)%cy, (jz+cz)%cz
					}
					if nb := g.byPos[[3]int{jx / n, jy / n, jz / n}]; nb != nil {
						copy(dst, nb.At(jx%n, jy%n, jz%n))
					} else {
						copy(dst, b.haloCell(f, ix, iy, iz))
					}
				}
			}
		}
	}
	fillFace(XLo, -sw, 0, 0, n, 0, n)
	fillFace(XHi, n, n+sw, 0, n, 0, n)
	fillFace(YLo, 0, n, -sw, 0, 0, n)
	fillFace(YHi, 0, n, n, n+sw, 0, n)
	fillFace(ZLo, 0, n, 0, n, -sw, 0)
	fillFace(ZHi, 0, n, 0, n, n, n+sw)
}

// fillRandom gives every cell of every block distinct random values of
// both signs, so a ghost read from the wrong cell, quantity or sign shows.
func fillRandom(g *Grid, rng *rand.Rand) {
	for _, b := range g.Blocks {
		for i := range b.Data {
			b.Data[i] = float32(rng.NormFloat64())
		}
	}
}

// installAllHalos gives every owned block a random slab on every face, the
// faces the lab must ignore (owned neighbors, physical boundaries) included.
func installAllHalos(g *Grid, rng *rand.Rand) {
	for _, b := range g.Blocks {
		for f := XLo; f <= ZHi; f++ {
			h := make([]float32, b.HaloSize())
			for i := range h {
				h[i] = float32(1000 + rng.NormFloat64())
			}
			b.SetHalo(f, h)
		}
	}
}

// sameBits reports the first lab word where two labs differ bitwise.
func sameBits(a, b *Lab) (int, bool) {
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			return i, false
		}
	}
	return 0, true
}

// TestLabLoadMatchesPerCellReference: the copy-only Lab.Load fills every
// lab word bitwise like the per-cell resolver, for every block of full and
// partial grids under absorbing, reflecting-on-each-face, periodic and mixed
// boundary conditions.
func TestLabLoadMatchesPerCellReference(t *testing.T) {
	type bcCase struct {
		name string
		bc   BC
	}
	bcs := []bcCase{
		{"absorbing", DefaultBC()},
		{"reflecting", BC{Reflecting, Reflecting, Reflecting, Reflecting, Reflecting, Reflecting}},
		{"periodic", PeriodicBC()},
		{"mixed", BC{Reflecting, Absorbing, Periodic, Periodic, Absorbing, Reflecting}},
		{"mixed2", BC{Periodic, Periodic, Reflecting, Absorbing, Reflecting, Absorbing}},
	}
	for f := XLo; f <= ZHi; f++ {
		bcs = append(bcs, bcCase{"wall" + f.String(), WallBC(f)})
	}
	type gridCase struct {
		name  string
		build func() *Grid
		halos bool
	}
	const n = 8
	h := 1.0 / n
	full := func(nbx, nby, nbz int) func() *Grid {
		return func() *Grid { return New(Desc{N: n, NBX: nbx, NBY: nby, NBZ: nbz, H: h}) }
	}
	grids := []gridCase{
		{"full1x1x1", full(1, 1, 1), false},
		{"full1x2x2", full(1, 2, 2), false},
		{"full2x2x2", full(2, 2, 2), false},
		{"full2x1x1-n6", func() *Grid { return New(Desc{N: 6, NBX: 2, NBY: 1, NBZ: 1, H: h}) }, false},
		{"partial2x2x2", func() *Grid {
			return NewPartial(Desc{N: n, NBX: 2, NBY: 2, NBZ: 2, H: h}, nil, [][3]int{{0, 0, 0}, {1, 0, 0}, {1, 1, 1}})
		}, true},
		{"partial1x2x2", func() *Grid {
			return NewPartial(Desc{N: n, NBX: 1, NBY: 2, NBZ: 2, H: h}, nil, [][3]int{{0, 1, 1}, {0, 0, 1}})
		}, true},
		{"partial3x1x2", func() *Grid {
			return NewPartial(Desc{N: n, NBX: 3, NBY: 1, NBZ: 2, H: h}, nil, [][3]int{{1, 0, 0}})
		}, true},
	}
	rng := rand.New(rand.NewSource(7))
	for _, gc := range grids {
		for _, bcc := range bcs {
			bc := bcc.bc
			t.Run(gc.name+"/"+bcc.name, func(t *testing.T) {
				g := gc.build()
				fillRandom(g, rng)
				if gc.halos {
					installAllHalos(g, rng)
				}
				got, want := NewLab(g.N), NewLab(g.N)
				for _, b := range g.Blocks {
					// Poison both labs alike so a cell one loader skips
					// cannot match by accident.
					for i := range got.Data {
						got.Data[i] = float32(math.Inf(-1))
						want.Data[i] = float32(math.Inf(-1))
					}
					got.Load(g, bc, b)
					want.loadPerCell(g, bc, b)
					if i, ok := sameBits(got, want); !ok {
						c := i / NQ
						lx, ly, lz := c%got.M-StencilWidth, c/got.M%got.M-StencilWidth, c/(got.M*got.M)-StencilWidth
						t.Fatalf("block (%d,%d,%d): lab cell (%d,%d,%d) q=%d = %v, reference %v",
							b.X, b.Y, b.Z, lx, ly, lz, i%NQ, got.Data[i], want.Data[i])
					}
				}
			})
		}
	}
}

// TestLabLoadConcurrent: workers assemble labs of neighboring blocks at the
// same time, reading each other's blocks; every lab still matches the
// reference. Run under -race (make race) this also checks that loading only
// reads shared blocks.
func TestLabLoadConcurrent(t *testing.T) {
	const n = 8
	g := New(Desc{N: n, NBX: 2, NBY: 2, NBZ: 2, H: 1.0 / n})
	fillRandom(g, rand.New(rand.NewSource(3)))
	bc := BC{Reflecting, Absorbing, Periodic, Periodic, Absorbing, Reflecting}
	var wg sync.WaitGroup
	errs := make(chan string, len(g.Blocks))
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, want := NewLab(n), NewLab(n)
			for k := range g.Blocks {
				b := g.Blocks[(k+w)%len(g.Blocks)]
				got.Load(g, bc, b)
				want.loadPerCell(g, bc, b)
				if _, ok := sameBits(got, want); !ok {
					errs <- fmt.Sprintf("worker %d block (%d,%d,%d) differs", w, b.X, b.Y, b.Z)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// BenchmarkLabLoad assembles one 32³ block of the cloud scenario's 1×2×2
// grid (reflecting wall at z-, absorbing elsewhere), the production lab
// size.
func BenchmarkLabLoad(b *testing.B) {
	const n = 32
	g := New(Desc{N: n, NBX: 1, NBY: 2, NBZ: 2, H: 1.0 / n})
	fillRandom(g, rand.New(rand.NewSource(1)))
	bc := WallBC(ZLo)
	lab := NewLab(n)
	blk := g.BlockAt(0, 0, 0)
	b.SetBytes(int64(n * n * n * NQ * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lab.Load(g, bc, blk)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n*n*n), "ns/cell")
}
