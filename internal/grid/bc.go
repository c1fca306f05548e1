package grid

import "fmt"

// BCKind selects the physical boundary condition applied to a domain face.
type BCKind int

// Supported boundary conditions.
const (
	// Absorbing extrapolates the interior state with zero gradient
	// (non-reflecting outflow); the default for open cloud simulations.
	Absorbing BCKind = iota
	// Reflecting mirrors the interior state and flips the normal momentum:
	// the solid wall of the paper's cloud-collapse setup.
	Reflecting
	// Periodic wraps around to the opposite side of the domain.
	Periodic
)

// String implements fmt.Stringer.
func (k BCKind) String() string {
	return [...]string{"absorbing", "reflecting", "periodic"}[k]
}

// BC assigns a boundary condition to each of the six domain faces.
type BC [6]BCKind

// DefaultBC is all-absorbing.
func DefaultBC() BC { return BC{} }

// WallBC returns absorbing conditions everywhere except a reflecting solid
// wall on the given face.
func WallBC(wall Face) BC {
	var bc BC
	bc[wall] = Reflecting
	return bc
}

// PeriodicBC returns fully periodic conditions.
func PeriodicBC() BC {
	return BC{Periodic, Periodic, Periodic, Periodic, Periodic, Periodic}
}

// faceSource resolves, once per face, where the Lab reads the ghosts
// beyond face f of block b. Both results are nil when f lies on a
// non-periodic domain face: the boundary condition bc[f] then fills the
// slab from b itself. Otherwise the neighbor across f (wrapped on a periodic
// axis) is returned when this grid owns it, else b's installed halo slab for
// f. A missing slab panics — a missing halo is a cluster-layer bug, never
// silently absorbed.
func (g *Grid) faceSource(bc BC, b *Block, f Face) (nb *Block, halo []float32) {
	a := f.Axis()
	c := [3]int{b.X, b.Y, b.Z}
	dim := [3]int{g.NBX, g.NBY, g.NBZ}[a]
	if f.IsHigh() {
		c[a]++
	} else {
		c[a]--
	}
	if c[a] < 0 || c[a] >= dim {
		if bc[f] != Periodic {
			return nil, nil
		}
		c[a] = (c[a] + dim) % dim
	}
	if nb := g.byPos[c]; nb != nil {
		return nb, nil
	}
	if b.halos[f] == nil {
		panic(fmt.Sprintf("grid: block (%d,%d,%d) read face %v ghost with no halo installed", b.X, b.Y, b.Z, f))
	}
	return nil, b.halos[f]
}

// mirror reflects an out-of-range coordinate about the domain face:
// -1 -> 0, -2 -> 1, n -> n-1, n+1 -> n-2.
func mirror(i, n int) int {
	if i < 0 {
		return -i - 1
	}
	if i >= n {
		return 2*n - 1 - i
	}
	return i
}

// clamp limits a coordinate to [0, n).
func clamp(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}
