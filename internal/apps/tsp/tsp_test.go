package tsp

import (
	"math"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dsm"
)

// bruteForce finds the exact optimum by full enumeration (test oracle).
func bruteForce(d [][]float64) float64 {
	n := len(d)
	best := math.Inf(1)
	perm := make([]int, 0, n)
	visited := make([]bool, n)
	var rec func(last int, length float64)
	rec = func(last int, length float64) {
		if len(perm) == n-1 {
			if t := length + d[last][0]; t < best {
				best = t
			}
			return
		}
		for c := 1; c < n; c++ {
			if visited[c] {
				continue
			}
			visited[c] = true
			perm = append(perm, c)
			rec(c, length+d[last][c])
			perm = perm[:len(perm)-1]
			visited[c] = false
		}
	}
	rec(0, 0)
	return best
}

func TestBoundIsAdmissible(t *testing.T) {
	p := Small()
	d := Cities(p)
	minInc := minIncident(d)
	opt := bruteForce(d)
	root := &Tour{Path: []int8{0}, Visited: 1}
	if b := bound(0, 1, minInc, p.NCities); b > opt+1e-9 {
		t.Fatalf("root bound %v exceeds optimum %v: not admissible", b, opt)
	}
	for _, c := range extend(root, d, minInc, p.NCities) {
		if c.Bound > opt+c.Length { // loose sanity: bound can't wildly exceed
			continue
		}
	}
}

func TestSeqFindsOptimum(t *testing.T) {
	p := Small()
	want := bruteForce(Cities(p))
	got := RunSeq(p)
	if math.Abs(got.Checksum-want) > 1e-9 {
		t.Fatalf("branch and bound found %v, brute force %v", got.Checksum, want)
	}
}

func TestSeqCutoffInvariance(t *testing.T) {
	// The exhaustive-leaf threshold must not change the optimum.
	base := Small()
	for _, cutoff := range []int{3, 5, 8} {
		p := base
		p.CutoffRemain = cutoff
		if got := RunSeq(p); math.Abs(got.Checksum-RunSeq(base).Checksum) > 1e-12 {
			t.Errorf("cutoff %d changed the optimum: %v", cutoff, got.Checksum)
		}
	}
}

func TestOMPFindsOptimum(t *testing.T) {
	p := Small()
	want := RunSeq(p).Checksum
	for _, procs := range []int{1, 2, 4} {
		got, err := RunOMP(p, procs)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if err := apps.CheckClose("tsp/omp", got.Checksum, want, 1e-12); err != nil {
			t.Errorf("procs=%d: %v", procs, err)
		}
	}
}

func TestTmkFindsOptimum(t *testing.T) {
	p := Small()
	want := RunSeq(p).Checksum
	for _, procs := range []int{2, 3, 8} {
		got, err := RunTmk(p, procs)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if err := apps.CheckClose("tsp/tmk", got.Checksum, want, 1e-12); err != nil {
			t.Errorf("procs=%d: %v", procs, err)
		}
	}
}

func TestMPIFindsOptimum(t *testing.T) {
	p := Small()
	want := RunSeq(p).Checksum
	for _, procs := range []int{1, 2, 4} {
		got, err := RunMPI(p, procs)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if err := apps.CheckClose("tsp/mpi", got.Checksum, want, 1e-12); err != nil {
			t.Errorf("procs=%d: %v", procs, err)
		}
	}
}

func TestLargerInstanceAgreesAcrossImpls(t *testing.T) {
	if testing.Short() {
		t.Skip("larger instance")
	}
	p := Params{NCities: 11, CutoffRemain: 7, Seed: 99, PoolSlots: 1 << 13}
	want := RunSeq(p).Checksum
	o, err := RunOMP(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := RunMPI(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := apps.CheckClose("tsp/omp-11", o.Checksum, want, 1e-12); err != nil {
		t.Error(err)
	}
	if err := apps.CheckClose("tsp/mpi-11", m.Checksum, want, 1e-12); err != nil {
		t.Error(err)
	}
}

func TestDistanceMatrixSymmetricMetric(t *testing.T) {
	d := Cities(Small())
	for i := range d {
		if d[i][i] != 0 {
			t.Fatalf("d[%d][%d] = %v", i, i, d[i][i])
		}
		for j := range d {
			if d[i][j] != d[j][i] {
				t.Fatalf("asymmetric distance (%d,%d)", i, j)
			}
		}
	}
}

// TestLockGrantOracle: the "tsp" critical section's grants carry its data
// (dsm lock.go) — queue, pool and bound — and every read of the run must
// match the shadow memory, on every DSM implementation, collecting by
// default and at every opportunity.
func TestLockGrantOracle(t *testing.T) {
	want := RunSeq(Small()).Checksum
	for _, pressure := range []int{0, 1} {
		p := Small()
		p.DSM.GCPressure = pressure
		for name, run := range map[string]func() (apps.Result, error){
			"omp":        func() (apps.Result, error) { return RunOMP(p, 8) },
			"tmk":        func() (apps.Result, error) { return RunTmk(p, 8) },
			"omp-hybrid": func() (apps.Result, error) { return RunOMPOn(p, 8, core.HybridIslands(4)) },
		} {
			dsm.SetDebugOracle(true)
			got, err := run()
			div := dsm.OracleDiverges()
			dsm.SetDebugOracle(false)
			if err != nil {
				t.Fatalf("%s, pressure %d: %v", name, pressure, err)
			}
			if div > 0 {
				t.Errorf("%s, pressure %d: %d reads diverged from the shadow memory", name, pressure, div)
			}
			if err := apps.CheckClose("tsp/"+name, got.Checksum, want, 1e-12); err != nil {
				t.Errorf("pressure %d: %v", pressure, err)
			}
		}
	}
}
