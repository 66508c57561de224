package barnes

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
)

func TestTreeConservesMass(t *testing.T) {
	p := Small()
	pos, _, mass := InitBodies(p)
	tr := BuildTree(pos, mass, p.NBody)
	var want float64
	for _, m := range mass {
		want += m
	}
	root := tr.Cells[0]
	if math.Abs(root.Mass-want) > 1e-12*float64(p.NBody) {
		t.Fatalf("root mass %v, want %v", root.Mass, want)
	}
}

func TestTreeHoldsEveryBodyOnce(t *testing.T) {
	p := Small()
	pos, _, mass := InitBodies(p)
	tr := BuildTree(pos, mass, p.NBody)
	seen := make(map[int32]int)
	for i := range tr.Cells {
		if b := tr.Cells[i].Body; b != nilRef {
			seen[b]++
		}
	}
	if len(seen) != p.NBody {
		t.Fatalf("%d distinct bodies in leaves, want %d", len(seen), p.NBody)
	}
	for b, cnt := range seen {
		if cnt != 1 {
			t.Fatalf("body %d appears in %d leaves", b, cnt)
		}
	}
}

func TestTreeImageRoundTrips(t *testing.T) {
	p := Small()
	pos, _, mass := InitBodies(p)
	tr := BuildTree(pos, mass, p.NBody)
	got := &Tree{}
	decodeTree(got, encodeTree(nil, tr))
	if len(got.Cells) != len(tr.Cells) {
		t.Fatalf("%d cells after round trip, want %d", len(got.Cells), len(tr.Cells))
	}
	for i := range tr.Cells {
		if got.Cells[i] != tr.Cells[i] {
			t.Fatalf("cell %d changed in round trip: %+v vs %+v", i, got.Cells[i], tr.Cells[i])
		}
	}
}

// TestAccelApproximatesDirectSum compares the theta=0.6 traversal against
// the exact O(n²) softened sum: the opening criterion bounds the relative
// force error to a few percent.
func TestAccelApproximatesDirectSum(t *testing.T) {
	p := Small()
	pos, _, mass := InitBodies(p)
	n := p.NBody
	tr := BuildTree(pos, mass, n)
	for _, i := range []int{0, 7, n / 2, n - 1} {
		ax, ay, az, _ := tr.Accel(pos, i, theta, eps)
		var ex, ey, ez float64
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			dx := pos[3*j] - pos[3*i]
			dy := pos[3*j+1] - pos[3*i+1]
			dz := pos[3*j+2] - pos[3*i+2]
			r2 := dx*dx + dy*dy + dz*dz + eps*eps
			inv := 1 / (r2 * math.Sqrt(r2))
			ex += mass[j] * inv * dx
			ey += mass[j] * inv * dy
			ez += mass[j] * inv * dz
		}
		bh := math.Sqrt(ax*ax + ay*ay + az*az)
		exact := math.Sqrt(ex*ex + ey*ey + ez*ez)
		diff := math.Sqrt((ax-ex)*(ax-ex) + (ay-ey)*(ay-ey) + (az-ez)*(az-ez))
		if diff > 0.08*exact {
			t.Errorf("body %d: BH accel %v deviates %.1f%% from direct sum %v", i, bh, 100*diff/exact, exact)
		}
	}
}

// TestImplementationsMatchSequential cross-checks all three parallel
// versions against the sequential checksum at a small size (the full grid
// runs in the harness equivalence suite).
func TestImplementationsMatchSequential(t *testing.T) {
	p := Params{NBody: 48, Steps: 2, Seed: 5}
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

func equalTrees(t *testing.T, label string, got, want *Tree) {
	t.Helper()
	if len(got.Cells) != len(want.Cells) || got.Work != want.Work {
		t.Fatalf("%s: %d cells / work %d, want %d / %d", label, len(got.Cells), got.Work, len(want.Cells), want.Work)
	}
	for i := range want.Cells {
		if got.Cells[i] != want.Cells[i] {
			t.Fatalf("%s: cell %d is %+v, want %+v", label, i, got.Cells[i], want.Cells[i])
		}
	}
}

// TestTreeBuildReusedMatchesFresh: one tree rebuilt in place over every
// step of a Small() run equals a fresh BuildTree cell for cell and in
// Work, including a build whose cell count shrinks (half the bodies) and
// the full build after it.
func TestTreeBuildReusedMatchesFresh(t *testing.T) {
	p := Small()
	n := p.NBody
	pos, vel, mass := InitBodies(p)
	acc := make([]float64, 3*n)
	kept := newTree(n)
	for step := 0; step <= p.Steps; step++ {
		kept.Build(pos, mass, n)
		fresh := BuildTree(pos, mass, n)
		equalTrees(t, fmt.Sprintf("step %d", step), kept, fresh)
		AccelRange(fresh, pos, acc, 0, n)
		Kick(vel, acc, 0, n)
		Drift(pos, vel, 0, n)
	}
	full := len(kept.Cells)
	kept.Build(pos, mass, n/2)
	if len(kept.Cells) >= full {
		t.Fatalf("half the bodies built %d cells, not fewer than %d", len(kept.Cells), full)
	}
	equalTrees(t, "shrunk", kept, BuildTree(pos, mass, n/2))
	kept.Build(pos, mass, n)
	equalTrees(t, "regrown", kept, BuildTree(pos, mass, n))
}

// smpMaster runs fn as the master of a one-thread SMP program over a
// shared tree buffer sized for n bodies.
func smpMaster(t *testing.T, n int, fn func(nd core.Worker, treeA core.Addr)) {
	t.Helper()
	prog := core.NewProgram(core.Config{Threads: 1, Backend: core.BackendSMP})
	defer prog.Close()
	treeA := prog.SharedPage(treeBytes(n))
	if err := prog.Run(func(m *core.MC) { fn(m.Worker(), treeA) }); err != nil {
		t.Fatal(err)
	}
}

// TestReadTreeIntoExposesNoStaleCell: a reader that decoded a larger tree
// first exposes exactly the smaller tree next — its cell slice and image
// shrink in length (not in storage) and hold no cell of the first.
func TestReadTreeIntoExposesNoStaleCell(t *testing.T) {
	p := Small()
	n := p.NBody
	pos, _, mass := InitBodies(p)
	smpMaster(t, n, func(nd core.Worker, treeA core.Addr) {
		w, r := &treeBufs{tree: newTree(n)}, &treeBufs{tree: newTree(n)}
		for _, bodies := range []int{n, n / 3, n} {
			want := BuildTree(pos, mass, bodies)
			w.tree.Build(pos, mass, bodies)
			writeTree(nd, treeA, w, n)
			got := readTreeInto(nd, treeA, n, r)
			if len(r.img) != 1+len(want.Cells)*cellF64s {
				t.Fatalf("image holds %d values, want %d", len(r.img), 1+len(want.Cells)*cellF64s)
			}
			got.Work = want.Work // Work is the builder's count; it does not travel
			equalTrees(t, fmt.Sprintf("%d-cell tree", len(want.Cells)), got, want)
		}
		if c := cap(r.tree.Cells); c < len(BuildTree(pos, mass, n).Cells) {
			t.Errorf("reader's tree storage shrank to %d cells", c)
		}
	})
}

// TestReadTreeRejectsCorruptCount: a reader checks the image's cell count
// before sizing anything from it. A count word overwritten after the
// master published its tree (zero, negative, past maxCells, huge, NaN)
// makes every reader panic naming the buffer, and the SMP backend's Run
// returns that as an error.
func TestReadTreeRejectsCorruptCount(t *testing.T) {
	p := Small()
	n := p.NBody
	pos, _, mass := InitBodies(p)
	for _, bad := range []float64{0, -3, float64(maxCells(n) + 1), 1e18, math.NaN()} {
		prog := core.NewProgram(core.Config{Threads: 2, Backend: core.BackendSMP})
		treeA := prog.SharedPage(treeBytes(n))
		prog.RegisterRegion("read", func(tc *core.TC) {
			nd := tc.Worker()
			b := &treeBufs{tree: newTree(n)}
			if tc.ThreadNum() == 0 {
				b.tree.Build(pos, mass, n)
				writeTree(nd, treeA, b, n)
				nd.WriteF64(treeA, bad)
			}
			tc.Barrier()
			readTreeInto(nd, treeA, n, b)
		})
		err := prog.Run(func(m *core.MC) { m.Parallel("read", core.NoArgs()) })
		prog.Close()
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("tree image at %#x", treeA)) {
			t.Errorf("count %v: Run returned %v, want the reader's panic naming %#x", bad, err, treeA)
		}
	}
}

// stepCost runs run at two step counts and returns the marginal host
// allocations and switch messages of one more time step.
func stepCost(t *testing.T, run func(Params) (apps.Result, error)) (allocs, msgs float64) {
	t.Helper()
	short, long := Small(), Small()
	short.Steps, long.Steps = 2, 6
	var m [2]int64
	var a [2]float64
	for i, p := range []Params{short, long} {
		a[i] = testing.AllocsPerRun(3, func() {
			res, err := run(p)
			if err != nil {
				t.Fatal(err)
			}
			m[i] = res.Messages
		})
	}
	steps := float64(long.Steps - short.Steps)
	return (a[1] - a[0]) / steps, float64(m[1]-m[0]) / steps
}

// TestWarmStepAllocs guards the run-long buffers: a warm time step of the
// MPI and OMP/SMP versions allocates a small constant per rank or thread
// — no tree, tree image or decoded position array. An MPI rank's step
// allocates its allgather send payload and the switch its messages; rank 0
// adds the gathered parts and their concatenation.
func TestWarmStepAllocs(t *testing.T) {
	const procs = 4
	allocs, msgs := stepCost(t, func(p Params) (apps.Result, error) { return RunMPI(p, procs) })
	t.Logf("mpi: %.2f allocs, %.0f msgs a step", allocs, msgs)
	if perRank := (allocs - msgs) / procs; perRank > 2 {
		t.Errorf("mpi: a warm step allocates %.1f times per rank beside %.0f messages, want ≤ 2", perRank, msgs)
	}
	allocs, _ = stepCost(t, func(p Params) (apps.Result, error) { return RunOMPOn(p, procs, core.BackendSMP) })
	t.Logf("omp-smp: %.2f allocs a step", allocs)
	if perThread := allocs / procs; perThread > 0.5 {
		t.Errorf("omp-smp: a warm step allocates %.1f times per thread, want ≤ 0.5", perThread)
	}
}

var treeSink *Tree

// BenchmarkTreeBuild: one octree build over the paper-scale bodies, into a
// fresh tree (BuildTree, the former per-step cost) and into one tree kept
// across builds (Tree.Build, which allocates nothing once warm).
func BenchmarkTreeBuild(b *testing.B) {
	p := Default()
	pos, _, mass := InitBodies(p)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			treeSink = BuildTree(pos, mass, p.NBody)
		}
	})
	b.Run("reused", func(b *testing.B) {
		t := newTree(p.NBody)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.Build(pos, mass, p.NBody)
		}
	})
}
