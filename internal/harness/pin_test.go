package harness

import (
	"fmt"
	"math"
	"testing"
)

// cellPin is the recorded traffic and result of one default-configuration
// grid cell at test scale. What is pinned is exactly what repeated over
// `go test -count=20` under a concurrent full-suite load:
//
//   - MPI and OMP/SMP cells are schedule-independent to the byte (TSP/mpi's
//     work stealing excepted), so they pin exact values. OpenMP reductions
//     fold at the join in thread order on every backend, so every cell
//     with one repeats its checksum bits, the NOW's included.
//   - DSM cells of the barrier-only applications repeat their checksum and,
//     for 3D-FFT/tmk, their message count; byte totals wobble in the fourth
//     digit (delta sizes depend on which clock estimates a server raised
//     before the application thread's next send), so those pin a band tight
//     enough that any change of wire format, home layout, or consensus
//     transport lands far outside it. Water's message count is the loose
//     one: test scale never reaches the collection threshold, so no flush
//     resets its pages to one whole-page fetch each, and how many creators
//     a fault asks for diffs follows the lock-grant order (omp 987-1,401
//     over 120 runs, tmk 1,099-1,423 over -count=40; the every-episode
//     schedule's 1,651 and 1,667 still land outside the bands).
//   - A whole page crosses the wire as its runs against zeros. The zero
//     words that no longer travel are the same on every run: 147,366 B of
//     3D-FFT/omp's 48 whole pages, 175,912 B of 3D-FFT/tmk's 55, and
//     158,029 B of Water/omp's and 190,684 B of Water/tmk's (79-107 pages:
//     a page more or fewer squashes, but those are dense). Each byte pin is
//     the total before less those bytes, in a band as wide in bytes as
//     before: the wobble is in the diffs and deltas, which did not change.
//
// A negative count or a zero checksum means "not pinned". Virtual time is
// not pinned anywhere: it is not stable for Water.
type cellPin struct {
	app      string
	impl     Impl
	msgs     int64
	bytes    int64
	checksum uint64  // math.Float64bits of the result checksum
	msgTol   float64 // relative band; 0 pins msgs exactly
	byteTol  float64 // relative band; 0 pins bytes exactly
}

var cellPins = []cellPin{
	{app: "Sweep3D", impl: MPI, msgs: 343, bytes: 146972, checksum: 0x40c76973ba93ca86},
	{app: "3D-FFT", impl: MPI, msgs: 182, bytes: 181720, checksum: 0x4081b9b77c62832b},
	{app: "Water", impl: MPI, msgs: 77, bytes: 270172, checksum: 0x40ad443025918a2e},
	{app: "TSP", impl: MPI, msgs: -1, bytes: -1, checksum: 0x4073514ede272040},
	{app: "QSORT", impl: MPI, msgs: 14, bytes: 112240, checksum: 0x41b5e6a780833000},
	{app: "LU", impl: MPI, msgs: 462, bytes: 253512, checksum: 0x40a50eb039314cb1},
	{app: "Barnes", impl: MPI, msgs: 35, bytes: 38164, checksum: 0x4061d4e1dac3494a},

	{app: "Sweep3D", impl: OMPSMP, checksum: 0x40c76973ba93ca85},
	{app: "3D-FFT", impl: OMPSMP, checksum: 0x4081b9b77c62832b},
	{app: "Water", impl: OMPSMP, checksum: 0x40ad443025918a2e},
	{app: "TSP", impl: OMPSMP, checksum: 0x4073514ede272040},
	{app: "QSORT", impl: OMPSMP, checksum: 0x41b5e6a780833000},
	{app: "LU", impl: OMPSMP, checksum: 0x40a50eb039314cb1},
	{app: "Barnes", impl: OMPSMP, checksum: 0x4061d4e1dac3494a},

	{app: "3D-FFT", impl: OMP, msgs: 581, msgTol: 0.03, bytes: 356500 - 147366, byteTol: 0.015 * 356500 / (356500 - 147366), checksum: 0x4081b9b77c62832b},
	{app: "3D-FFT", impl: Tmk, msgs: 497, bytes: 376700 - 175912, byteTol: 0.01 * 376700 / (376700 - 175912), checksum: 0x4081b9b77c62832b},
	{app: "Water", impl: OMP, msgs: 1195, msgTol: 0.18, bytes: 860000 - 158029, byteTol: 0.02 * 860000 / (860000 - 158029), checksum: 0x40ad443025918a2e},
	{app: "Water", impl: Tmk, msgs: 1260, msgTol: 0.15, bytes: 889000 - 190684, byteTol: 0.02 * 889000 / (889000 - 190684), checksum: 0x40ad443025918a2e},
	{app: "LU", impl: OMP, msgs: -1, bytes: -1, checksum: 0x40a50eb039314cb1},
}

// TestDefaultConfigCellPins holds the default-configuration output of the
// schedule-independent cells fixed while the protocol code behind them
// changes: a refactor that alters what the default path puts on the wire,
// or what it computes, fails here first.
func TestDefaultConfigCellPins(t *testing.T) {
	const procs = 8
	within := func(got, want int64, tol float64) bool {
		return math.Abs(float64(got-want)) <= tol*float64(want)
	}
	for _, pin := range cellPins {
		pin := pin
		t.Run(fmt.Sprintf("%s/%s", pin.app, pin.impl), func(t *testing.T) {
			t.Parallel()
			a, ok := FindApp(pin.app)
			if !ok {
				t.Fatalf("unknown app %s", pin.app)
			}
			res, err := Verified(a, Test, pin.impl, procs)
			if err != nil {
				t.Fatal(err)
			}
			if pin.msgs >= 0 && !within(res.Messages, pin.msgs, pin.msgTol) {
				t.Errorf("messages = %d, pinned %d (±%g)", res.Messages, pin.msgs, pin.msgTol)
			}
			if pin.bytes >= 0 && !within(res.Bytes, pin.bytes, pin.byteTol) {
				t.Errorf("bytes = %d, pinned %d (±%g)", res.Bytes, pin.bytes, pin.byteTol)
			}
			if got := math.Float64bits(res.Checksum); pin.checksum != 0 && got != pin.checksum {
				t.Errorf("checksum bits = %#x, pinned %#x", got, pin.checksum)
			}
		})
	}
}
