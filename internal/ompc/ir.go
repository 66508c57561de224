// Package ompc is the OpenMP-to-TreadMarks compiler of Section 4.3,
// reproduced at the level that matters for the paper: the directive-
// annotated program IR, the two-phase interprocedural analysis that infers
// which memory locations must live in shared memory (and catches
// shared/private conflicts), and the fork-join transformation that
// encapsulates each parallel region into a separately runnable subroutine
// with its shared-pointer/firstprivate environment.
//
// The SUIF Fortran/C frontend is out of scope: programs are
// constructed as IR directly, which is exactly the representation the
// analysis of the paper operates on.
package ompc

import "fmt"

// VarKind distinguishes how a variable's storage behaves under the
// analysis: pointers cannot be redeclared when they conflict (Section
// 4.3.1: "an error is given if the variable is a pointer").
type VarKind int

// Variable kinds.
const (
	Scalar VarKind = iota
	Array
	Pointer
)

func (k VarKind) String() string {
	switch k {
	case Scalar:
		return "scalar"
	case Array:
		return "array"
	case Pointer:
		return "pointer"
	}
	return fmt.Sprintf("VarKind(%d)", int(k))
}

// Sharing is a data-environment attribute from a directive clause. The
// paper's proposal (Section 3.1) makes Private the default: a variable
// with no clause in any region is private and costs nothing.
type Sharing int

// Sharing attributes.
const (
	Unspecified Sharing = iota
	Shared
	Private
	FirstPrivate
	Reduction
)

func (s Sharing) String() string {
	switch s {
	case Unspecified:
		return "unspecified"
	case Shared:
		return "shared"
	case Private:
		return "private"
	case FirstPrivate:
		return "firstprivate"
	case Reduction:
		return "reduction"
	}
	return fmt.Sprintf("Sharing(%d)", int(s))
}

// Var declares a variable: a global, or a local of one subroutine.
type Var struct {
	Name string
	Kind VarKind
	// Size in bytes of the underlying storage (used when the transform
	// allocates the variable in shared memory).
	Size int
}

// Param is a formal parameter of a subroutine. ByRef parameters alias
// their actual argument's storage — the channel through which shared
// attributes propagate along the call chain.
type Param struct {
	Name  string
	Kind  VarKind
	ByRef bool
}

// Clause attaches a sharing attribute to a variable name within one
// parallel region.
type Clause struct {
	Var     string
	Sharing Sharing
}

// Region is one parallel or parallel-do region inside a subroutine.
type Region struct {
	Name    string
	Clauses []Clause
}

// Call records a call site: callee name and the actual argument variable
// names, positionally matching the callee's params.
type Call struct {
	Callee string
	Args   []string
}

// Subroutine is one procedure of the program.
type Subroutine struct {
	Name    string
	Params  []Param
	Locals  []*Var
	Regions []*Region
	Calls   []Call
}

// Program is a whole directive-annotated program.
type Program struct {
	Globals []*Var
	Subs    []*Subroutine
}

// Loc qualifies a variable by where its storage lives: "" for globals,
// the owning subroutine's name for locals. Formal by-ref parameters have
// no storage of their own; the analysis resolves them to actual-argument
// locations.
type Loc struct {
	Sub string // "" = global
	Var string
}

func (l Loc) String() string {
	if l.Sub == "" {
		return l.Var
	}
	return l.Sub + "." + l.Var
}

func (p *Program) sub(name string) *Subroutine {
	for _, s := range p.Subs {
		if s.Name == name {
			return s
		}
	}
	return nil
}

func (p *Program) global(name string) *Var {
	for _, g := range p.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

func (s *Subroutine) local(name string) *Var {
	for _, v := range s.Locals {
		if v.Name == name {
			return v
		}
	}
	return nil
}

func (s *Subroutine) param(name string) (int, *Param) {
	for i := range s.Params {
		if s.Params[i].Name == name {
			return i, &s.Params[i]
		}
	}
	return -1, nil
}
