package lu

import (
	"math"
	"testing"

	"repro/internal/apps"
	"repro/internal/sim"
)

// TestFactorizationReconstructsMatrix multiplies the in-place L and U
// factors back together and checks them against the original matrix.
func TestFactorizationReconstructsMatrix(t *testing.T) {
	p := Params{N: 24, Seed: 99}
	orig := InitMatrix(p)
	n := p.N

	a := make([]float64, len(orig))
	copy(a, orig)
	for k := 0; k < n; k++ {
		pivot := a[k*n : (k+1)*n]
		for i := k + 1; i < n; i++ {
			UpdateRow(a[i*n:(i+1)*n], pivot, k)
		}
	}

	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			// (L·U)_ij with L unit-lower and U upper, both stored in a.
			var s float64
			for k := 0; k <= i && k <= j; k++ {
				l := a[i*n+k]
				if k == i {
					l = 1
				}
				s += l * a[k*n+j]
			}
			if math.Abs(s-orig[i*n+j]) > 1e-9*float64(n) {
				t.Fatalf("(LU)[%d][%d] = %v, want %v", i, j, s, orig[i*n+j])
			}
		}
	}
}

func TestDiagonalDominanceKeepsPivotsLarge(t *testing.T) {
	res := RunSeq(Small())
	if res.Checksum <= 0 || math.IsNaN(res.Checksum) {
		t.Fatalf("bad sequential checksum %v", res.Checksum)
	}
	// The min-pivot monitor contributes at least the dominance floor.
	p := Small()
	a := InitMatrix(p)
	for i := 0; i < p.N; i++ {
		var off float64
		for j := 0; j < p.N; j++ {
			if j != i {
				off += math.Abs(a[i*p.N+j])
			}
		}
		if math.Abs(a[i*p.N+i]) <= off {
			t.Fatalf("row %d not diagonally dominant: |diag|=%v off=%v", i, math.Abs(a[i*p.N+i]), off)
		}
	}
}

// TestImplementationsMatchSequential cross-checks all three parallel
// versions against the sequential checksum at a small size (the full grid
// runs in the harness equivalence suite).
func TestImplementationsMatchSequential(t *testing.T) {
	p := Params{N: 32, Seed: 7}
	want := RunSeq(p).Checksum
	for name, run := range map[string]func(Params, int) (apps.Result, error){
		"omp": RunOMP, "tmk": RunTmk, "mpi": RunMPI,
	} {
		for _, procs := range []int{1, 3, 4} {
			got, err := run(p, procs)
			if err != nil {
				t.Fatalf("%s/p%d: %v", name, procs, err)
			}
			if err := apps.CheckClose(name, got.Checksum, want, 1e-10); err != nil {
				t.Errorf("p%d: %v", procs, err)
			}
		}
	}
}

// wholeMatrix is the full-matrix generator InitRows must reproduce row for
// row: one RNG stream, n entries and a diagonal boost per row.
func wholeMatrix(p Params) []float64 {
	n := p.N
	a := make([]float64, n*n)
	rng := sim.NewRNG(p.Seed)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a[i*n+j] = rng.Float64() - 0.5
		}
		a[i*n+i] = float64(n)/2 + 1 + rng.Float64()
	}
	return a
}

// TestInitRowsMatchesWholeMatrix: every row block InitRows builds —
// empty, first, last, interior, whole — is bitwise the same rows of the
// full matrix, so a rank that generates only its own rows factors the
// identical matrix.
func TestInitRowsMatchesWholeMatrix(t *testing.T) {
	p := Params{N: 37, Seed: 27182}
	n := p.N
	want := wholeMatrix(p)
	for _, r := range [][2]int{{0, n}, {0, 0}, {n, n}, {0, 1}, {n - 1, n}, {5, 17}, {17, 17}, {9, n}} {
		got := InitRows(p, r[0], r[1])
		if len(got) != (r[1]-r[0])*n {
			t.Fatalf("rows %v: %d values, want %d", r, len(got), (r[1]-r[0])*n)
		}
		for i, v := range got {
			if w := want[r[0]*n+i]; math.Float64bits(v) != math.Float64bits(w) {
				t.Fatalf("rows %v: value %d is %v, want %v", r, i, v, w)
			}
		}
	}
	for i, v := range InitMatrix(p) {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			t.Fatalf("InitMatrix value %d is %v, want %v", i, v, want[i])
		}
	}
}

// TestMPIPivotLoopAllocs: LU/MPI's elimination step allocates only the
// root's send payload beside the switch's messages — every other rank
// decodes the broadcast pivot row into a buffer it keeps for the run. The
// marginal cost of one more step is read off two matrix sizes (every other
// allocation of a rank is one per run, whatever N).
func TestMPIPivotLoopAllocs(t *testing.T) {
	const procs = 4
	var a, m [2]float64
	sizes := [2]int{32, 64}
	for i, n := range sizes {
		p := Params{N: n, Seed: 27182}
		a[i] = testing.AllocsPerRun(3, func() {
			res, err := RunMPI(p, procs)
			if err != nil {
				t.Fatal(err)
			}
			m[i] = float64(res.Messages)
		})
	}
	steps := float64(sizes[1] - sizes[0])
	allocs, msgs := (a[1]-a[0])/steps, (m[1]-m[0])/steps
	t.Logf("a step: %.2f allocs, %.0f messages", allocs, msgs)
	if extra := allocs - msgs; extra > 1.25 {
		t.Errorf("an elimination step allocates %.2f times beside its %.0f messages, want ≤ 1.25 (the root's payload)", extra, msgs)
	}
}
