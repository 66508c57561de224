package dsm

import (
	"math/bits"
	"sync"
)

// bufPool recycles one System's twins, page copies, diffs and wire
// payloads: a free list under a mutex per size class, shared by the nodes
// because a payload is taken by its sender (wbuf) and released by its one
// receiver once decoded. Classes round
// up by under 12.5 % (exact to 16 bytes, then eight a power of two to 64 KiB,
// plus (PageSize, PageSize+3] for full-page diffs); a miss allocates the
// class size. Released buffers hold poisonByte, so a use after release fails
// a checksum or the shadow oracle. Not a sync.Pool: that empties at every
// GC, so its savings would follow GC timing.
type bufPool [8*12 + 17]struct {
	mu   sync.Mutex
	free [][]byte
}

const poolMax, poisonByte = 64 << 10, 0xa5 // the largest class; what a released buffer holds

// sizeClass returns the class of an n-byte buffer and its size; ok is false,
// and idx and size mean nothing, for a size the pool does not keep.
func sizeClass(n int) (idx, size int, ok bool) {
	if n > PageSize && n <= PageSize+3 {
		return 0, PageSize + 3, true
	}
	e := max(bits.Len(uint(n-1))-4, 0) // 8<<e < n <= 16<<e: classes 1<<e apart
	size = (n + 1<<e - 1) >> e << e
	return 8*e + size>>e, size, n > 0 && n <= poolMax
}

// get returns an n-byte buffer, a released one when its class has one; the
// caller writes every byte it reads.
func (p *bufPool) get(n int) []byte {
	idx, size, ok := sizeClass(n)
	if !ok {
		return make([]byte, n)
	}
	c := &p[idx]
	c.mu.Lock()
	defer c.mu.Unlock()
	if k := len(c.free) - 1; k >= 0 {
		b := c.free[k]
		c.free = c.free[:k]
		return b[:n]
	}
	return make([]byte, n, size)
}

// clone returns a pooled copy of b.
func (p *bufPool) clone(b []byte) []byte { return append(p.get(len(b))[:0], b...) }

// put poisons each buffer and releases it to its class; one whose capacity
// is not a class size did not come from get and is dropped.
func (p *bufPool) put(bufs ...[]byte) {
	for _, b := range bufs {
		if idx, size, ok := sizeClass(cap(b)); ok && size == cap(b) {
			b = b[:size]
			for i := copy(b, []byte{poisonByte}); i < size; i *= 2 {
				copy(b[i:], b[:i])
			}
			p[idx].mu.Lock()
			p[idx].free = append(p[idx].free, b)
			p[idx].mu.Unlock()
		}
	}
}
