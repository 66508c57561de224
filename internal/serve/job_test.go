package serve

import (
	"strings"
	"testing"

	"repro/internal/harness"
)

func TestParseMix(t *testing.T) {
	mix, err := ParseMix("Water:omp-smp:p4, TSP:omp:p4:w=3:gc=64 ,3D-FFT:mpi:p8,3D-FFT:omp:p4:gc=64")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 4 {
		t.Fatalf("got %d classes, want 4", len(mix))
	}
	want0 := JobClass{App: "Water", Impl: harness.OMPSMP, Procs: 4, MixWeight: 1}
	if mix[0] != want0 {
		t.Fatalf("class 0 = %+v, want %+v", mix[0], want0)
	}
	want1 := JobClass{App: "TSP", Impl: harness.OMP, Procs: 4, MixWeight: 3,
		GC: harness.GCKnobs{Pressure: 64}}
	if mix[1] != want1 {
		t.Fatalf("class 1 = %+v, want %+v", mix[1], want1)
	}
	if got := mix[1].Label(); got != "TSP/omp/p4" {
		t.Fatalf("label %q", got)
	}
	// GC knobs attach to every application, 3D-FFT included.
	want3 := JobClass{App: "3D-FFT", Impl: harness.OMP, Procs: 4, MixWeight: 1,
		GC: harness.GCKnobs{Pressure: 64}}
	if mix[3] != want3 {
		t.Fatalf("class 3 = %+v, want %+v", mix[3], want3)
	}
	if mix[2].SlotWeight() != 1 {
		t.Fatalf("mpi slot weight %d, want 1 (quarter slot)", mix[2].SlotWeight())
	}
	if mix[1].SlotWeight() != harness.CellUnitsPerWorker {
		t.Fatalf("omp slot weight %d, want a full slot", mix[1].SlotWeight())
	}
}

func TestParseMixRejects(t *testing.T) {
	bad := []string{
		"",                          // empty
		"Water:omp-smp",             // missing procs
		"NoSuchApp:omp:p4",          // unknown app
		"Water:fortran:p4",          // unknown impl
		"Water:omp:p0",              // zero procs
		"Water:omp:4",               // missing p prefix
		"Water:omp:p4:w=0",          // zero weight
		"Water:omp:p4:x=1",          // unknown option
		"Water:omp:p4:policy=flush", // the deleted purge-policy key
		"Water:omp:p4:gc=sixty",     // non-numeric pressure
		"Water:omp:p4:policy",       // option without value
	}
	for _, spec := range bad {
		if _, err := ParseMix(spec); err == nil {
			t.Errorf("ParseMix(%q) accepted, want error", spec)
		}
	}
}

// TestParseMixRejectsNegativeGC: gc=P is a collection threshold; there is
// no negative "consensus trigger off" value.
func TestParseMixRejectsNegativeGC(t *testing.T) {
	_, err := ParseMix("TSP:omp:p4:gc=-1")
	if err == nil || !strings.Contains(err.Error(), "bad gc pressure") {
		t.Fatalf("ParseMix(gc=-1) = %v, want a bad gc pressure error", err)
	}
}

func TestParseMixHybridPinned(t *testing.T) {
	mix, err := ParseMix("Water:omp-hybrid@4:p8")
	if err != nil {
		t.Fatal(err)
	}
	if mix[0].SlotWeight() != 2 {
		t.Fatalf("pinned hybrid slot weight %d, want 2 (half slot)", mix[0].SlotWeight())
	}
}

func TestDriverDeterministic(t *testing.T) {
	mix, err := ParseMix("Water:omp-smp:p4:w=2,TSP:seq:p1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DriverConfig{Seed: 7, Rate: 100, Mix: mix}
	d1, err := NewDriver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := NewDriver(cfg)
	a, b := d1.Draw(500), d2.Draw(500)
	counts := map[string]int{}
	for i := range a {
		if a[i].Arrival != b[i].Arrival || a[i].Class != b[i].Class {
			t.Fatalf("job %d diverges across identical drivers: %+v vs %+v", i, a[i], b[i])
		}
		if i > 0 && a[i].Arrival <= a[i-1].Arrival {
			t.Fatalf("arrivals must strictly advance: job %d at %s after %s", i, a[i].Arrival, a[i-1].Arrival)
		}
		counts[a[i].Class.Label()]++
	}
	// The weighted draw must produce both classes, with the weight-2
	// class the more common (loose: 500 draws, 2:1 odds).
	if counts["Water/omp-smp/p4"] <= counts["TSP/seq/p1"] {
		t.Fatalf("mix weights ignored: %v", counts)
	}
	if len(counts) != 2 {
		t.Fatalf("expected both classes drawn, got %v", counts)
	}
}
