// Package dsm implements a TreadMarks-style software distributed shared
// memory system on the simulated network of workstations, as described in
// Section 4 of the paper:
//
//   - a paged global shared address space on top of per-node private
//     memories (each node owns a private copy of every page it touches;
//     nothing is shared between nodes except protocol messages),
//   - a lazy invalidate implementation of release consistency (LRC) with
//     vector clocks, intervals, and write notices,
//   - a multiple-writer protocol using twins and word-granularity diffs,
//   - the synchronization primitives of Section 4.2: centralized-manager
//     barriers, distributed locks with last-holder forwarding, condition
//     variables attached to locks, semaphores with a manager node, and the
//     OpenMP flush (kept for the paper's ablation of Section 3.2.3), and
//   - Tmk_fork / Tmk_join fork-join threading tailored to OpenMP.
//
// Access detection substitutes explicit per-access checks for the
// mprotect/SIGSEGV mechanism of real TreadMarks (which cannot coexist with
// the Go runtime); every protocol event — fault, twin creation, diff, write
// notice, invalidation — is reproduced faithfully.
package dsm

import (
	"encoding/binary"
	"fmt"
	"math"
)

// wbuf is a tiny append-only little-endian encoder for protocol messages.
// Message sizes feed the Table 2 byte statistics, so the encodings are kept
// as compact as the real protocol's. With a pool it encodes a wire payload
// in place: an append that outgrows the buffer takes a power-of-two class
// (at least twice the old) from the pool and releases the old buffer, so
// the payload is the pool's, and its one receiver releases it once decoded.
// Without a pool it grows like append.
type wbuf struct {
	b    []byte
	pool *bufPool
}

// room makes space for k more bytes (see wbuf).
func (w *wbuf) room(k int) {
	if w.pool == nil || len(w.b)+k <= cap(w.b) {
		return
	}
	size := max(2*cap(w.b), 32)
	for size < len(w.b)+k {
		size *= 2
	}
	b := w.pool.get(size)[:len(w.b)]
	copy(b, w.b)
	w.pool.put(w.b)
	w.b = b
}

func (w *wbuf) u8(v uint8)   { w.room(1); w.b = append(w.b, v) }
func (w *wbuf) u32(v uint32) { w.room(4); w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *wbuf) i32(v int)    { w.u32(uint32(int32(v))) }
func (w *wbuf) raw(p []byte) { w.room(len(p)); w.b = append(w.b, p...) } // p as it is

func (w *wbuf) bytes(p []byte) {
	w.u32(uint32(len(p)))
	w.raw(p)
}

func (w *wbuf) str(s string) { w.bytes([]byte(s)) }

// wireError is the panic value raised by every decode-side validation
// failure (short message, oversized count, malformed varint). Keeping a
// dedicated type lets the fuzz harness recover exactly the decoder's own
// bounded failure path while still treating any other panic — including a
// runtime index/alloc fault, which would mean a validation gap — as a bug.
type wireError string

func (e wireError) Error() string { return string(e) }

func wireErrf(format string, args ...any) wireError {
	return wireError(fmt.Sprintf(format, args...))
}

// rbuf decodes what wbuf encodes. Decoding errors indicate protocol bugs
// (or, since frames cross the simulated wire, hostile input in the fuzz
// suite), so they panic with a wireError rather than returning errors.
type rbuf struct {
	b   []byte
	off int
}

func (r *rbuf) need(n int) []byte {
	if n < 0 || r.off+n > len(r.b) {
		panic(wireErrf("dsm: short message: need %d bytes at offset %d of %d", n, r.off, len(r.b)))
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

// remaining returns how many undecoded bytes are left: the bound every
// wire-supplied element count must be validated against BEFORE allocating
// (each element occupies at least one byte on the wire, so a count above
// remaining() can only come from a truncated or corrupted frame).
func (r *rbuf) remaining() int { return len(r.b) - r.off }

// needCount validates a wire-supplied element count against the bytes
// actually remaining, given a minimum encoded size per element. It exists
// so a corrupted count fails as a bounded short-message error instead of
// a multi-gigabyte allocation.
func (r *rbuf) needCount(n, minBytesPer int) int {
	if n < 0 || n > r.remaining()/minBytesPer {
		panic(wireErrf("dsm: short message: count %d exceeds %d remaining bytes at offset %d of %d",
			n, r.remaining(), r.off, len(r.b)))
	}
	return n
}

func (r *rbuf) u8() uint8   { return r.need(1)[0] }
func (r *rbuf) u32() uint32 { return binary.LittleEndian.Uint32(r.need(4)) }
func (r *rbuf) i32() int    { return int(int32(r.u32())) }

// view decodes a length-prefixed byte field WITHOUT copying: the result
// aliases the payload, with its capacity clipped so an append can never
// reach the bytes behind it. A payload has one receiver, who releases it to
// the pool once decoded (a fetch reply's once applied, a grant's once its
// diffs are applied or retained), so a view lives no longer than that;
// anything kept is copied, as bytes does.
func (r *rbuf) view() []byte {
	n := int(r.u32())
	return r.need(n)[:n:n]
}

func (r *rbuf) bytes() []byte {
	// The length is validated against the bytes actually present (need)
	// before anything is allocated: a truncated frame must hit the
	// bounded short-message path, never size an allocation from the
	// corrupted count.
	p := r.view()
	out := make([]byte, len(p))
	copy(out, p)
	return out
}

func (r *rbuf) str() string { return string(r.bytes()) }

func (r *rbuf) done() bool { return r.off == len(r.b) }

// maxUvarint bounds decoded varint values: clock components, sequence
// numbers, page ids, and counts all fit int32, so anything larger is a
// corrupted frame.
const maxUvarint = math.MaxInt32

// uv appends v in LEB128 (unsigned varint) form: the workhorse of the
// compact wire encoding, where most values — sparse VC deltas, page-run
// gaps, element counts — are small.
func (w *wbuf) uv(v uint64) {
	w.room(binary.MaxVarintLen64)
	for v >= 0x80 {
		w.b = append(w.b, byte(v)|0x80)
		v >>= 7
	}
	w.b = append(w.b, byte(v))
}

// uv decodes one LEB128 varint, bounded to maxUvarint (all wire values
// fit int32; see maxUvarint). Truncation and overflow both raise the
// decoder's wireError.
func (r *rbuf) uv() uint64 {
	var v uint64
	for shift := 0; ; shift += 7 {
		b := r.need(1)[0]
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			break
		}
		if shift >= 28 {
			panic(wireErrf("dsm: short message: varint overflow at offset %d of %d", r.off, len(r.b)))
		}
	}
	if v > maxUvarint {
		panic(wireErrf("dsm: short message: varint %d exceeds max %d at offset %d of %d", v, uint64(maxUvarint), r.off, len(r.b)))
	}
	return v
}

// uvi is uv with the int conversion every count/index site wants.
func (r *rbuf) uvi() int { return int(r.uv()) }
