package barnes

import (
	"fmt"

	"repro/internal/core"
)

// Helpers shared by the OpenMP and TreadMarks versions: the octree
// travels through DSM memory as one flat float64 image (children and body
// indices are exact in float64 far beyond any tree size used here), and
// the body arrays are deliberately packed — block boundaries false-share
// pages, which is the sharing pattern this application exists to stress.

// cellF64s is the per-cell footprint of the tree image: 8 scalars, 8
// child refs, 1 body ref.
const cellF64s = 17

// maxCells bounds the shared tree buffer; a uniform distribution builds
// ~2n cells, so 8n leaves generous slack.
func maxCells(n int) int { return 8*n + 64 }

// treeBytes sizes the shared tree buffer (one leading count slot).
func treeBytes(n int) int { return 8 * (1 + maxCells(n)*cellF64s) }

// treeBufs is one thread's tree and tree image, kept for the run: the master
// builds and encodes, a reader reads and decodes. Both only grow, and all
// values below the new length are rewritten, so no stale cell shows.
type treeBufs struct {
	img  []float64
	tree *Tree
}

// resize returns s at length n, reallocating with an eighth's slack (the
// tree's size drifts from step to step) only when its capacity falls short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		s = make([]T, n, n+n/8)
	}
	return s[:n]
}

// encodeTree flattens a finalized tree into img, reusing its storage.
func encodeTree(img []float64, t *Tree) []float64 {
	out := resize(img, 1+len(t.Cells)*cellF64s)
	out[0] = float64(len(t.Cells))
	for i := range t.Cells {
		c := &t.Cells[i]
		b := 1 + i*cellF64s
		out[b+0], out[b+1], out[b+2], out[b+3] = c.CX, c.CY, c.CZ, c.Half
		out[b+4], out[b+5], out[b+6], out[b+7] = c.Mass, c.MX, c.MY, c.MZ
		for o := 0; o < 8; o++ {
			out[b+8+o] = float64(c.Child[o])
		}
		out[b+16] = float64(c.Body)
	}
	return out
}

// decodeTree rebuilds t from its float64 image, reusing its cell storage.
func decodeTree(t *Tree, img []float64) {
	nc := (len(img) - 1) / cellF64s
	t.Cells = resize(t.Cells, nc)
	for i := 0; i < nc; i++ {
		c := &t.Cells[i]
		b := 1 + i*cellF64s
		c.CX, c.CY, c.CZ, c.Half = img[b+0], img[b+1], img[b+2], img[b+3]
		c.Mass, c.MX, c.MY, c.MZ = img[b+4], img[b+5], img[b+6], img[b+7]
		for o := 0; o < 8; o++ {
			c.Child[o] = int32(img[b+8+o])
		}
		c.Body = int32(img[b+16])
	}
}

// writeTree publishes the image of b's tree into shared memory at base.
func writeTree(nd core.Worker, base core.Addr, b *treeBufs, n int) {
	if len(b.tree.Cells) > maxCells(n) {
		panic(fmt.Sprintf("barnes: %d-cell tree overflows the shared tree buffer at %#x", len(b.tree.Cells), base))
	}
	b.img = encodeTree(b.img, b.tree)
	nd.WriteF64s(base, b.img)
}

// readTreeInto loads the tree image published at base into b and returns
// b's tree. The image's cell count is checked before anything is sized
// from it: a corrupt or torn count fails here, naming the buffer.
func readTreeInto(nd core.Worker, base core.Addr, n int, b *treeBufs) *Tree {
	nc := nd.ReadF64(base)
	if !(nc >= 1 && nc <= float64(maxCells(n))) {
		panic(fmt.Sprintf("barnes: tree image at %#x counts %v cells, want 1..%d", base, nc, maxCells(n)))
	}
	b.img = resize(b.img, 1+int(nc)*cellF64s)
	nd.ReadF64s(base, b.img)
	decodeTree(b.tree, b.img)
	return b.tree
}
