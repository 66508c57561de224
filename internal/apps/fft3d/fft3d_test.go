package fft3d

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/apps"
	"repro/internal/dsm"
)

func TestFFTRoundTrip(t *testing.T) {
	a := make([]complex128, 64)
	orig := make([]complex128, len(a))
	for i := range a {
		a[i] = complex(float64(i%7)-3, float64(i%5)-2)
		orig[i] = a[i]
	}
	fft(a, -1)
	fft(a, +1)
	for i := range a {
		got := a[i] / complex(float64(len(a)), 0)
		if cmplx.Abs(got-orig[i]) > 1e-9 {
			t.Fatalf("round trip elem %d: %v != %v", i, got, orig[i])
		}
	}
}

func TestFFTKnownImpulse(t *testing.T) {
	// FFT of a unit impulse is flat ones.
	a := make([]complex128, 16)
	a[0] = 1
	fft(a, -1)
	for i, v := range a {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse FFT elem %d = %v, want 1", i, v)
		}
	}
}

func TestFFTKnownSinusoid(t *testing.T) {
	// A pure complex exponential concentrates in one bin.
	n := 32
	k := 5
	a := make([]complex128, n)
	for i := range a {
		ang := 2 * math.Pi * float64(k*i) / float64(n)
		a[i] = complex(math.Cos(ang), math.Sin(ang))
	}
	fft(a, -1)
	for i, v := range a {
		want := 0.0
		if i == k {
			want = float64(n)
		}
		if math.Abs(cmplx.Abs(v)-want) > 1e-9 {
			t.Fatalf("bin %d = %v, want magnitude %v", i, v, want)
		}
	}
}

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n=12")
		}
	}()
	fft(make([]complex128, 12), -1)
}

func TestTransposeInverse(t *testing.T) {
	n := 8
	u := make([]complex128, n*n*n)
	for i := range u {
		u[i] = complex(float64(i), -float64(i))
	}
	w := make([]complex128, n*n*n)
	back := make([]complex128, n*n*n)
	transpose(u, w, n)
	transposeBack(w, back, n)
	for i := range u {
		if u[i] != back[i] {
			t.Fatalf("transpose round trip broken at %d", i)
		}
	}
}

func TestSeqDeterministic(t *testing.T) {
	p := Small()
	a := RunSeq(p)
	b := RunSeq(p)
	if a.Checksum != b.Checksum {
		t.Fatalf("sequential run not deterministic: %v vs %v", a.Checksum, b.Checksum)
	}
	if a.Checksum == 0 {
		t.Fatal("checksum is zero — no work happened")
	}
	if a.Time <= 0 {
		t.Fatal("sequential time not accounted")
	}
}

func TestOMPMatchesSeq(t *testing.T) {
	p := Small()
	want := RunSeq(p).Checksum
	for _, procs := range []int{1, 2, 4} {
		got, err := RunOMP(p, procs)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if err := apps.CheckClose("fft3d/omp", got.Checksum, want, 1e-9); err != nil {
			t.Errorf("procs=%d: %v", procs, err)
		}
	}
}

func TestTmkMatchesSeq(t *testing.T) {
	p := Small()
	want := RunSeq(p).Checksum
	for _, procs := range []int{1, 3, 4} {
		got, err := RunTmk(p, procs)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if err := apps.CheckClose("fft3d/tmk", got.Checksum, want, 1e-9); err != nil {
			t.Errorf("procs=%d: %v", procs, err)
		}
	}
}

func TestMPIMatchesSeq(t *testing.T) {
	p := Small()
	want := RunSeq(p).Checksum
	for _, procs := range []int{1, 2, 4} {
		got, err := RunMPI(p, procs)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if err := apps.CheckClose("fft3d/mpi", got.Checksum, want, 1e-9); err != nil {
			t.Errorf("procs=%d: %v", procs, err)
		}
	}
}

func TestParallelSpeedsUp(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run timing test")
	}
	// Communication dominates tiny grids, so speedup is only expected at
	// a realistic size; n=32 with 8 processors must beat 1 processor.
	p := Params{N: 32, Iters: 2, Seed: 271828}
	one, err := RunOMP(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := RunOMP(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	if eight.Time >= one.Time {
		t.Errorf("OMP at 8 procs (%v) not faster than 1 proc (%v)", eight.Time, one.Time)
	}
	if eight.Messages == 0 {
		t.Error("parallel run sent no messages")
	}
	// One processor must be within a few percent of sequential (fork
	// overhead only): the single-node fast path of the DSM.
	seq := RunSeq(p)
	if ratio := one.Time.Seconds() / seq.Time.Seconds(); ratio > 1.10 {
		t.Errorf("1-proc OMP is %.2fx sequential, want <= 1.10x", ratio)
	}
}

func TestMPISendsLessDataThanDSM(t *testing.T) {
	// The paper's core Table 2 observation.
	p := Small()
	omp, err := RunOMP(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	mpiRes, err := RunMPI(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if mpiRes.Bytes >= omp.Bytes {
		t.Errorf("MPI bytes (%d) should be below OpenMP/DSM bytes (%d)", mpiRes.Bytes, omp.Bytes)
	}
}

// TestTmkHeapCoversLayout checks the TreadMarks version's heap budget
// against every page its layout takes, at full scale on every machine size
// of the scaling study: the budget once left out the per-node checksum
// partials, and p64 ran out of heap. The allocator does not depend on the
// node count, so a one-node system replays each layout.
func TestTmkHeapCoversLayout(t *testing.T) {
	p := Default()
	pts := p.N * p.N * p.N
	for _, procs := range []int{8, 16, 32, 64, 128} {
		maxSlab := (p.N + procs - 1) / procs
		maxBlock := maxSlab * maxSlab * p.N
		sys := dsm.New(dsm.Config{Procs: 1, HeapBytes: tmkHeapBytes(pts, procs, maxBlock)})
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("p%d: %v", procs, r)
				}
			}()
			allocTmk(sys, pts, procs, maxBlock)
		}()
		sys.Close()
	}
}
