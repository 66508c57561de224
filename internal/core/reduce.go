package core

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Reductions. "The reduction directive identifies reduction variables.
// According to the standard, reduction variables must be scalar, but we
// extend the standard to include arrays" (Section 2). Each thread folds
// into a partial private to its region context; the partial leaves with the
// thread's join (on the NOW, behind the join message's consistency trailer);
// the master folds the P contributions into its private accumulator in
// thread order 0…P−1. No lock, no shared accumulator, no message beyond the
// joins — and with the fold order fixed, the result is schedule-independent.

// ReduceOp names the combining operation of a reduction clause.
type ReduceOp int

// Supported reduction operators.
const (
	OpSum ReduceOp = iota
	OpProd
	OpMin
	OpMax
)

func (op ReduceOp) combine(a, b float64) float64 {
	switch op {
	case OpSum:
		return a + b
	case OpProd:
		return a * b
	case OpMin:
		if b < a {
			return b
		}
		return a
	case OpMax:
		if b > a {
			return b
		}
		return a
	}
	panic(fmt.Sprintf("core: unknown reduction op %d", op))
}

func (op ReduceOp) identity() float64 {
	switch op {
	case OpSum:
		return 0
	case OpProd:
		return 1
	case OpMin:
		return +1.797693134862315708145274237317043567981e308 // MaxFloat64
	case OpMax:
		return -1.797693134862315708145274237317043567981e308
	}
	panic("core: unknown reduction op")
}

// redVar is one reduction variable: its operator and the master's private
// accumulator, whose length is the variable's (1 for a scalar).
type redVar struct {
	id  int
	op  ReduceOp
	acc []float64
}

func (p *Program) newRedVar(op ReduceOp, n int) *redVar {
	p.mu.Lock()
	defer p.mu.Unlock()
	v := &redVar{id: len(p.reds), op: op, acc: make([]float64, n)}
	p.reds = append(p.reds, v)
	return v
}

// master returns the accumulator, which is the master's alone: a region
// thread resetting or reading it is a programming error.
func (v *redVar) master(tc *TC) []float64 {
	if tc.inRegion {
		panic("core: reduction Reset or Value inside a parallel region (master only, between regions)")
	}
	return v.acc
}

func (v *redVar) reset(tc *TC) {
	acc := v.master(tc)
	for i := range acc {
		acc[i] = v.op.identity()
	}
}

func (v *redVar) fold(dst, src []float64) {
	for i, x := range src {
		dst[i] = v.op.combine(dst[i], x)
	}
}

// partial is one thread's private partial of one reduction variable, for
// one region invocation.
type partial struct {
	v   *redVar
	val []float64
}

// reduce folds a thread's value into its partial — a second call folds
// locally — or, called by the master outside any region, straight into the
// accumulator.
func (v *redVar) reduce(tc *TC, local []float64) {
	if len(local) != len(v.acc) {
		panic(fmt.Sprintf("core: array reduction length %d, want %d", len(local), len(v.acc)))
	}
	if !tc.inRegion {
		v.fold(v.acc, local)
		return
	}
	for _, pt := range tc.partials {
		if pt.v == v {
			v.fold(pt.val, local)
			return
		}
	}
	tc.partials = append(tc.partials, partial{v: v, val: append([]float64(nil), local...)})
}

// contribution encodes a thread's partials for its join as self-delimiting
// entries, uvarint(id) and the values: nothing at all (the identity, and no
// extra byte on the wire) from a thread that reduced nothing.
func (tc *TC) contribution() []byte {
	var b []byte
	for _, pt := range tc.partials {
		b = binary.AppendUvarint(b, uint64(pt.v.id))
		for _, x := range pt.val {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
	}
	return b
}

// combine folds the team's contributions, entry by entry in thread order,
// into the accumulators and charges the master one op per contributed value.
func (m *MC) combine(contribs [][]byte) {
	vals := 0
	for _, b := range contribs {
		for len(b) > 0 {
			id, k := binary.Uvarint(b)
			v := m.p.reds[id]
			b = b[k:]
			for i := range v.acc {
				v.acc[i] = v.op.combine(v.acc[i], math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:])))
			}
			b = b[8*len(v.acc):]
			vals += len(v.acc)
		}
	}
	m.Compute(float64(vals))
}

// Reduction is a scalar float64 reduction variable.
type Reduction struct{ v *redVar }

// NewReduction allocates a reduction variable with the given operator.
// Allocate reductions before Run.
func (p *Program) NewReduction(op ReduceOp) *Reduction {
	return &Reduction{v: p.newRedVar(op, 1)}
}

// Reset sets the accumulator to the operator's identity; call it (from the
// master, outside parallel regions) before each use.
func (r *Reduction) Reset(tc *TC) { r.v.reset(tc) }

// Reduce folds a thread's private partial value into its contribution (the
// master outside any region folds into the accumulator directly).
func (r *Reduction) Reduce(tc *TC, local float64) { r.v.reduce(tc, []float64{local}) }

// Value reads the accumulated result (master, after the region).
func (r *Reduction) Value(tc *TC) float64 { return r.v.master(tc)[0] }

// ArrayReduction is the paper's extension: an array-valued reduction
// variable. Each thread contributes a whole private array, and
// contributions combine element-wise at the join — one contribution per
// thread, not one per element (the point of the extension).
type ArrayReduction struct{ v *redVar }

// NewArrayReduction allocates an n-element float64 array reduction.
func (p *Program) NewArrayReduction(op ReduceOp, n int) *ArrayReduction {
	return &ArrayReduction{v: p.newRedVar(op, n)}
}

// Len returns the array length.
func (ar *ArrayReduction) Len() int { return len(ar.v.acc) }

// Reset fills the accumulator with the operator's identity.
func (ar *ArrayReduction) Reset(tc *TC) { ar.v.reset(tc) }

// Reduce folds a thread's private partial array into its contribution.
func (ar *ArrayReduction) Reduce(tc *TC, local []float64) { ar.v.reduce(tc, local) }

// Value copies the accumulated array into dst.
func (ar *ArrayReduction) Value(tc *TC, dst []float64) {
	if len(dst) != ar.Len() {
		panic("core: array reduction Value length mismatch")
	}
	copy(dst, ar.v.master(tc))
}
