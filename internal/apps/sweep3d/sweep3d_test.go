package sweep3d

import (
	"math"
	"testing"

	"repro/internal/apps"
)

func TestOrdinatesNormalized(t *testing.T) {
	for _, A := range []int{1, 2, 6, 8} {
		var wsum float64
		for a := 0; a < A; a++ {
			mu, eta, xi, w := ordinate(a, A)
			if r := mu*mu + eta*eta + xi*xi; math.Abs(r-1) > 1e-12 {
				t.Errorf("A=%d a=%d: |Ω|² = %v, want 1", A, a, r)
			}
			if mu <= 0 || eta <= 0 || xi <= 0 {
				t.Errorf("A=%d a=%d: cosines must be positive in the unit octant: %v %v %v", A, a, mu, eta, xi)
			}
			wsum += w
		}
		if math.Abs(wsum-1) > 1e-12 {
			t.Errorf("A=%d: weights sum to %v, want 1", A, wsum)
		}
	}
}

func TestAxisOrderAndBlocks(t *testing.T) {
	fwd := axisOrder(5, +1)
	rev := axisOrder(5, -1)
	for i := 0; i < 5; i++ {
		if fwd[i] != i || rev[i] != 4-i {
			t.Fatalf("axisOrder wrong: %v %v", fwd, rev)
		}
	}
	blocks := xBlocks(10, 4, +1)
	if len(blocks) != 3 || len(blocks[2]) != 2 {
		t.Fatalf("xBlocks(10,4) = %v", blocks)
	}
	total := 0
	for _, b := range xBlocks(10, 4, -1) {
		total += len(b)
	}
	if total != 10 {
		t.Fatalf("reverse blocks cover %d of 10", total)
	}
}

func TestFluxIsPositive(t *testing.T) {
	// With a positive source and vacuum boundaries every cell's scalar
	// flux must be positive.
	p := Small()
	res := RunSeq(p)
	if res.Checksum <= 0 {
		t.Fatalf("checksum %v, want positive flux digest", res.Checksum)
	}
}

func TestSeqDeterministic(t *testing.T) {
	p := Small()
	if a, b := RunSeq(p), RunSeq(p); a.Checksum != b.Checksum {
		t.Fatalf("sequential not deterministic: %v vs %v", a.Checksum, b.Checksum)
	}
}

func TestSeqBlockInvariance(t *testing.T) {
	// The pipeline blocking must not change the physics: different
	// (BlockX, AngleBlock) settings give bit-identical flux.
	base := RunSeq(Params{NX: 12, NY: 12, NZ: 12, Angles: 2, BlockX: 12, AngleBlock: 2})
	alt := RunSeq(Params{NX: 12, NY: 12, NZ: 12, Angles: 2, BlockX: 3, AngleBlock: 1})
	// Angle-blocking changes only the order of the per-cell angle sum, so
	// agreement must hold to the last few ulps.
	if err := apps.CheckClose("sweep3d/blocking", alt.Checksum, base.Checksum, 1e-13); err != nil {
		t.Fatal(err)
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
		if err := apps.CheckClose("sweep3d/omp", got.Checksum, want, 1e-10); err != nil {
			t.Errorf("procs=%d: %v", procs, err)
		}
	}
}

func TestTmkMatchesSeq(t *testing.T) {
	p := Small()
	want := RunSeq(p).Checksum
	for _, procs := range []int{2, 3, 8} {
		got, err := RunTmk(p, procs)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if err := apps.CheckClose("sweep3d/tmk", got.Checksum, want, 1e-10); err != nil {
			t.Errorf("procs=%d: %v", procs, err)
		}
	}
}

func TestMPIMatchesSeq(t *testing.T) {
	p := Small()
	want := RunSeq(p).Checksum
	for _, procs := range []int{1, 2, 4, 6} {
		got, err := RunMPI(p, procs)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if err := apps.CheckClose("sweep3d/mpi", got.Checksum, want, 1e-10); err != nil {
			t.Errorf("procs=%d: %v", procs, err)
		}
	}
}

func TestPipelineUsesSemaphores(t *testing.T) {
	p := Small()
	res, err := RunOMP(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages == 0 {
		t.Fatal("pipelined run sent no messages")
	}
}

func TestMorePipelineStagesStillCorrect(t *testing.T) {
	// Full 8-way pipeline on a mesh where slabs are a single row.
	p := Params{NX: 8, NY: 8, NZ: 8, Angles: 2, BlockX: 2, AngleBlock: 1}
	want := RunSeq(p).Checksum
	got, err := RunOMP(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := apps.CheckClose("sweep3d/omp-deep", got.Checksum, want, 1e-10); err != nil {
		t.Error(err)
	}
}

// TestSemIDPlacesAtWaiter checks the semaphore id space: semID is
// injective over producer × x-block × angle block × direction × family ×
// waiter, and every id's DSM manager (id mod procs) is its waiter's node.
func TestSemIDPlacesAtWaiter(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 8, 32, 64} {
		seen := make([]bool, maxXBlocks*maxAngleBlk*2*2*procs*procs)
		for producer := 0; producer < procs; producer++ {
			for xb := 0; xb < maxXBlocks; xb++ {
				for ab := 0; ab < maxAngleBlk; ab++ {
					for dir := 0; dir < 2; dir++ {
						for family := 0; family < 2; family++ {
							for waiter := 0; waiter < procs; waiter++ {
								id := semID(producer, xb, ab, dir, family, waiter, procs)
								if id < 0 || id >= len(seen) || seen[id] {
									t.Fatalf("procs=%d: semID(%d, %d, %d, %d, %d, %d) = %d is out of range or taken",
										procs, producer, xb, ab, dir, family, waiter, id)
								}
								seen[id] = true
								if id%procs != waiter {
									t.Fatalf("procs=%d: semaphore %d of waiter %d is managed on node %d",
										procs, id, waiter, id%procs)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestTmkSyncMessagesPinned pins the synchronization traffic of the
// 8-node test-scale pipeline. Every wait is at its own node's manager and
// sends nothing; every signal is one request and one acknowledgment to
// the waiter's node. 8 octants × 6 blocks × 7 hand-offs, a data and a
// free signal each, are 672 signals and 1,344 messages; the region's
// fork, barrier, join and exit add 35. With the managers fixed by angle
// block, direction and family instead, the count was 2,279.
func TestTmkSyncMessagesPinned(t *testing.T) {
	res, err := RunTmk(Small(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.SyncMsgs != 1379 {
		t.Errorf("%d synchronization messages, pinned at 1,379", res.SyncMsgs)
	}
}

// BenchmarkSlabStep is one pipeline block of thread 0's sweep at the
// default problem and 8 threads: the ψ_y planes taken from the thread's
// slab buffers, then sweepSlab. B/op is what a block allocates beyond the
// buffers the thread keeps for the run.
func BenchmarkSlabStep(b *testing.B) {
	p := Default()
	ys, ylo := slabOrder(p.NY, +1, 0, 8)
	xs := xBlocks(p.NX, p.BlockX, +1)[0]
	as := angleBlocks(p.Angles, p.AngleBlock)[0]
	psiX := make([]float64, len(ys)*p.NZ*len(as))
	flux := make([]float64, len(ys)*p.NX*p.NZ)
	bufs := newSlabBufs(p)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in, out := bufs.slab(len(xs) * p.NZ * len(as))
		sweepSlab(p, octants[0], xs, ys, as, ylo, in, out, psiX, flux)
	}
}
