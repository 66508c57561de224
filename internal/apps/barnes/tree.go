package barnes

import "math"

// The Barnes-Hut octree. Everything here is a pure function of the body
// arrays: given identical positions and masses, every implementation
// builds bitwise-identical trees and computes bitwise-identical
// accelerations, which is what lets the four versions be cross-checked
// against one another.

// nilRef marks an empty child slot or "no body".
const nilRef = -1

// Cell is one octree node, either internal (Body < 0) or a leaf holding a
// single body. Fields are float64-encodable so trees can travel through
// shared memory (see shared.go).
type Cell struct {
	CX, CY, CZ float64 // cube center
	Half       float64 // half the cube edge
	Mass       float64 // total mass below (after Finalize)
	MX, MY, MZ float64 // center of mass (after Finalize)
	Child      [8]int32
	Body       int32
}

// Tree is a built and finalized Barnes-Hut octree.
type Tree struct {
	Cells []Cell
	// Work counts insertion and finalization steps, the flop surrogate of
	// the build phase.
	Work int
}

// newCell appends an empty cell cube and returns its index.
func (t *Tree) newCell(cx, cy, cz, half float64) int32 {
	idx := int32(len(t.Cells))
	c := Cell{CX: cx, CY: cy, CZ: cz, Half: half, Body: nilRef}
	for i := range c.Child {
		c.Child[i] = nilRef
	}
	t.Cells = append(t.Cells, c)
	return idx
}

// octant returns the child index of point (x, y, z) within cell c.
func octant(c *Cell, x, y, z float64) int {
	o := 0
	if x >= c.CX {
		o |= 1
	}
	if y >= c.CY {
		o |= 2
	}
	if z >= c.CZ {
		o |= 4
	}
	return o
}

// childCube returns the center and half-size of child octant o of cell c.
func childCube(c *Cell, o int) (cx, cy, cz, half float64) {
	half = c.Half / 2
	cx, cy, cz = c.CX-half, c.CY-half, c.CZ-half
	if o&1 != 0 {
		cx = c.CX + half
	}
	if o&2 != 0 {
		cy = c.CY + half
	}
	if o&4 != 0 {
		cz = c.CZ + half
	}
	return
}

// BuildTree constructs the octree over bodies 0..n-1 (pos is the packed
// [x y z] array) and finalizes masses and centers of mass.
func BuildTree(pos, mass []float64, n int) *Tree {
	t := newTree(n)
	t.Build(pos, mass, n)
	return t
}

// newTree returns an empty tree with room for the ~2n cells that n
// uniformly spread bodies build.
func newTree(n int) *Tree { return &Tree{Cells: make([]Cell, 0, 2*n+1)} }

// Build rebuilds t in place over bodies 0..n-1, reusing its cell storage:
// the result, Work included, equals a fresh BuildTree's. Bodies are
// inserted in index order and children finalized in octant order, so the
// result is deterministic.
func (t *Tree) Build(pos, mass []float64, n int) {
	t.Cells, t.Work = t.Cells[:0], 0
	// Root cube: the bounding box blown up to a cube with a little slack.
	minC, maxC := math.Inf(1), math.Inf(-1)
	for i := 0; i < 3*n; i++ {
		if pos[i] < minC {
			minC = pos[i]
		}
		if pos[i] > maxC {
			maxC = pos[i]
		}
	}
	mid := (minC + maxC) / 2
	half := (maxC-minC)/2 + 1e-9
	t.newCell(mid, mid, mid, half)
	for i := 0; i < n; i++ {
		t.insert(0, int32(i), pos)
	}
	t.finalize(0, pos, mass)
}

// insert places body b into the subtree rooted at cell ci. Pointers into
// t.Cells are never held across newCell (append may reallocate).
func (t *Tree) insert(ci, b int32, pos []float64) {
	x, y, z := pos[3*b], pos[3*b+1], pos[3*b+2]
	for depth := 0; ; depth++ {
		if depth > 128 {
			panic("barnes: tree depth exceeded (coincident bodies?)")
		}
		t.Work++
		if c := &t.Cells[ci]; c.Body == nilRef && t.childCount(ci) == 0 {
			// Empty leaf (the fresh root before the first body).
			c.Body = b
			return
		}
		if c := &t.Cells[ci]; c.Body != nilRef {
			// Occupied leaf: push the resident body down one level.
			old := c.Body
			c.Body = nilRef
			oo := octant(c, pos[3*old], pos[3*old+1], pos[3*old+2])
			cx, cy, cz, h := childCube(c, oo)
			nc := t.newCell(cx, cy, cz, h)
			t.Cells[nc].Body = old
			t.Cells[ci].Child[oo] = nc
		}
		c := &t.Cells[ci]
		o := octant(c, x, y, z)
		if c.Child[o] == nilRef {
			cx, cy, cz, h := childCube(c, o)
			nc := t.newCell(cx, cy, cz, h)
			t.Cells[nc].Body = b
			t.Cells[ci].Child[o] = nc
			return
		}
		ci = c.Child[o]
	}
}

func (t *Tree) childCount(ci int32) int {
	cnt := 0
	for _, ch := range t.Cells[ci].Child {
		if ch != nilRef {
			cnt++
		}
	}
	return cnt
}

// finalize computes Mass and center of mass bottom-up, visiting children
// in octant order for determinism.
func (t *Tree) finalize(ci int32, pos, mass []float64) {
	c := &t.Cells[ci]
	if c.Body != nilRef {
		b := c.Body
		c.Mass = mass[b]
		c.MX, c.MY, c.MZ = pos[3*b], pos[3*b+1], pos[3*b+2]
		t.Work++
		return
	}
	var m, mx, my, mz float64
	for _, ch := range c.Child {
		if ch == nilRef {
			continue
		}
		t.finalize(ch, pos, mass)
		cc := &t.Cells[ch]
		m += cc.Mass
		mx += cc.Mass * cc.MX
		my += cc.Mass * cc.MY
		mz += cc.Mass * cc.MZ
	}
	c = &t.Cells[ci] // reacquire: finalize may not append, but be safe
	c.Mass = m
	if m > 0 {
		c.MX, c.MY, c.MZ = mx/m, my/m, mz/m
	}
	t.Work++
}

// Accel returns the Barnes-Hut acceleration on body i under opening angle
// theta and softening eps, plus the number of body-cell interactions
// evaluated (the flop surrogate of the force phase). The traversal order
// (children in octant order, iterative with an explicit stack pushed in
// reverse) is fixed, so the floating-point result is deterministic.
func (t *Tree) Accel(pos []float64, i int, theta, eps float64) (ax, ay, az float64, interactions int) {
	x, y, z := pos[3*i], pos[3*i+1], pos[3*i+2]
	eps2 := eps * eps
	stack := make([]int32, 0, 64)
	stack = append(stack, 0)
	for len(stack) > 0 {
		ci := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c := &t.Cells[ci]
		if c.Body == int32(i) {
			continue // self
		}
		dx := c.MX - x
		dy := c.MY - y
		dz := c.MZ - z
		r2 := dx*dx + dy*dy + dz*dz
		if c.Body == nilRef && 4*c.Half*c.Half >= theta*theta*r2 {
			// Too close to approximate: open the cell. Push children in
			// reverse so they pop in octant order.
			for o := 7; o >= 0; o-- {
				if ch := c.Child[o]; ch != nilRef {
					stack = append(stack, ch)
				}
			}
			continue
		}
		if c.Mass == 0 {
			continue
		}
		interactions++
		r2 += eps2
		inv := 1 / (r2 * math.Sqrt(r2))
		s := c.Mass * inv
		ax += s * dx
		ay += s * dy
		az += s * dz
	}
	return ax, ay, az, interactions
}
